package exp

import (
	"fmt"
	"time"

	"repro/internal/litlx"
	"repro/internal/mem"
	"repro/internal/serve"
)

func init() {
	register("V3", ExpDataLocality)
}

// ExpDataLocality is the data-plane experiment: the same deterministic
// localhot script — one locale's objects drawing most of the traffic,
// with read-mostly and write-heavy sidecars homed elsewhere — played
// against two servers that differ only in the data plane. The baseline
// routes by the (tenant, key) hash and fetches every remote working-set
// object on demand, on the critical path; the data-plane server routes
// each request to its working set's majority home locale
// (Config.Data.LocalityRoute), stages each batch's working set into the
// dispatcher's locale ahead of execution (Config.Data.Stage), and runs
// the locality loop (Config.Adapt.Locality) migrating write-heavy
// sidecars toward the locale that writes them. It is the serving-path
// closure of the paper's Section 3.1/3.2 claim: staging data at the
// site of computation turns remote accesses into local ones. The
// access_cost / remote_frac columns come from the shared mem.Space
// directory and are driven by the deterministic routing and staging
// decisions; wait_us is wall clock (shape-stable, machine-dependent).
func ExpDataLocality(scale int) *Result {
	res := newResult("V3", "EXP-V3: locality-routed + data-percolated vs hash-routed serving (localhot scenario)",
		"config", "offered", "done", "access_cost", "remote_frac", "wait_us", "staged", "migrations", "replications")

	const (
		locales = 2
		shards  = 4
		objects = 8
		hot     = 2
		perTick = 8
		tick    = time.Millisecond
	)
	ticks := 150 * scale
	// Hot objects live at locale 0 and draw 75% of the traffic; sidecar
	// objects live at locale 1, ride along in hot working sets, and 30%
	// of the time are written — the migration bait.
	specs := make([]serve.DataObject, objects)
	for i := range specs {
		if i < hot {
			specs[i] = serve.DataObject{Size: 2048, Home: 0}
		} else {
			specs[i] = serve.DataObject{Size: 2048, Home: 1}
		}
	}
	sc := serve.LocalHotScenario(31, 1, ticks, perTick, objects, hot, 0.75, 0.3, 1024)

	run := func(dataPlane bool) (serve.LoadReport, serve.Snapshot, mem.SpaceStats) {
		sys, err := litlx.New(litlx.Config{Locales: locales, WorkersPerLocale: 8})
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		cfg := serve.Config{Shards: shards, QueueDepth: 512, Batch: 8}
		if dataPlane {
			cfg.Data = serve.DataConfig{LocalityRoute: true, Stage: true}
			cfg.Adapt = serve.AdaptConfig{
				Enabled:        true,
				RebalanceEvery: time.Millisecond,
				Locality:       true,
				LocalityEvery:  8 * time.Millisecond,
				LatencyBudget:  time.Second, // isolate the data plane from overload shedding
			}
		}
		srv := serve.New(sys, cfg)
		defer srv.Close()
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name: "t0",
			Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) {
				spinWork(30)
				return nil, nil
			},
			Objects: specs,
		})
		if err != nil {
			panic(err)
		}
		rep := serve.PlayScenario(srv, sc, serve.PlayConfig{Tenants: []*serve.Tenant{tn}, Tick: tick})
		return rep, srv.Snapshot(), sys.Space.Stats()
	}

	var stats [2]serve.Snapshot
	var spaces [2]mem.SpaceStats
	for i, dataPlane := range []bool{false, true} {
		rep, st, sp := run(dataPlane)
		stats[i], spaces[i] = st, sp
		label := "hash-routed"
		if dataPlane {
			label = "locality-routed"
		}
		total := sp.Reads + sp.Writes
		remoteFrac := 0.0
		if total > 0 {
			remoteFrac = float64(sp.RemoteReads+sp.RemoteWrites) / float64(total)
		}
		res.Table.AddRow(label, rep.Offered, rep.Completed,
			sp.TotalCost, remoteFrac, st.Stats.WaitEWMAus,
			st.Stats.DataStaged, st.Adapt.Migrations, st.Adapt.Replications)
		prefix := "hash_"
		if dataPlane {
			prefix = "locality_"
		}
		res.Metrics[prefix+"access_cost"] = float64(sp.TotalCost)
		res.Metrics[prefix+"remote_frac"] = remoteFrac
		res.Metrics[prefix+"wait_us"] = st.Stats.WaitEWMAus
	}
	res.Metrics["migrations"] = float64(stats[1].Adapt.Migrations)
	res.Metrics["replications"] = float64(stats[1].Adapt.Replications)
	res.Metrics["staged"] = float64(stats[1].Stats.DataStaged)
	if spaces[1].TotalCost > 0 {
		res.Metrics["access_cost_ratio"] = float64(spaces[0].TotalCost) / float64(spaces[1].TotalCost)
	}

	// The experiment's claims, enforced: the data plane must actually
	// engage (staging and the locality loop moved data, witnessed by the
	// monitor-backed counters) and must beat hash routing on modeled
	// access cost. The baseline must not touch any of it.
	if stats[0].Stats.DataStaged != 0 || stats[0].Adapt.Migrations != 0 || stats[0].Adapt.Replications != 0 {
		panic(fmt.Sprintf("exp V3: hash-routed baseline moved data (staged %d, migrations %d, replications %d)",
			stats[0].Stats.DataStaged, stats[0].Adapt.Migrations, stats[0].Adapt.Replications))
	}
	if stats[1].Stats.DataStaged == 0 {
		panic("exp V3: data-plane run staged nothing")
	}
	if stats[1].Adapt.Migrations == 0 {
		panic("exp V3: locality loop migrated nothing")
	}
	if spaces[1].TotalCost >= spaces[0].TotalCost {
		panic(fmt.Sprintf("exp V3: locality-routed access cost %d not below hash-routed %d",
			spaces[1].TotalCost, spaces[0].TotalCost))
	}
	return res
}
