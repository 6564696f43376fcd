package exp

import (
	"fmt"
	"time"

	"repro/internal/litlx"
	"repro/internal/serve"
)

func init() {
	register("V2", ExpAdaptiveServe)
}

// ExpAdaptiveServe is the adaptive-vs-static serving experiment: the
// same deterministic skewed-load scripts (hot-key and adversarial
// same-shard, internal/serve scenarios) played against two servers that
// differ only in Config.Adapt. It is the serving-path closure of the
// paper's Section 2 claim — always-on monitoring feeding adaptivity
// controllers beats fixed knobs under skew. Handlers sleep rather than
// spin, so per-shard capacity is pinned by InflightBatches and the
// sleep, and the static-vs-adaptive shape is machine-independent even
// though absolute latencies are wall clock. The steals / batch_moves
// columns come from the monitor counters the controllers publish.
func ExpAdaptiveServe(scale int) *Result {
	res := newResult("V2", "EXP-V2: adaptive vs static serving under skewed load (scenario scripts)",
		"scenario", "config", "offered", "done", "shed_pct", "p99_us", "steals", "batch_moves")

	const (
		shards  = 8
		perTick = 10
		tick    = 500 * time.Microsecond
	)
	ticks := 150 * scale

	run := func(sc serve.Scenario, adaptive bool) (serve.LoadReport, serve.AdaptStats, serve.ObserveSnapshot, int) {
		sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 16})
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		cfg := serve.Config{Shards: shards, QueueDepth: 256, Batch: 4, InflightBatches: 2}
		if adaptive {
			cfg.Adapt = serve.AdaptConfig{
				Enabled:        true,
				BatchMax:       64,
				RebalanceEvery: 250 * time.Microsecond,
				LatencyBudget:  time.Second, // isolate stealing + batching from overload shedding
			}
			// The adaptive run traces every flow: its flight recorder is
			// the experiment's explanation — which controller decisions
			// (steals, batch retunes) each scenario's traffic provoked.
			cfg.Observe = serve.ObserveConfig{SampleRate: 1, RingSize: 128}
		}
		srv := serve.New(sys, cfg)
		defer srv.Close()
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name: "t0",
			Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) {
				time.Sleep(150 * time.Microsecond)
				return nil, nil
			},
		})
		if err != nil {
			panic(err)
		}
		rep := serve.PlayScenario(srv, sc, serve.PlayConfig{Tenants: []*serve.Tenant{tn}, Tick: tick})
		badFlows := 0
		if r := srv.Recorder(); r != nil {
			badFlows = len(r.Failures())
		}
		return rep, srv.AdaptStats(), srv.Snapshot().Observe, badFlows
	}

	scenarios := []struct {
		name string
		sc   serve.Scenario
	}{
		// The hot pair itself can never migrate (same-key order), so the
		// loop's relief is stealing background work off the hot shard.
		{"hotkey", serve.HotKeyScenario(23, 1, ticks, perTick+2, 4096, 0.5)},
		// Every key collides onto one shard of eight: the static server
		// runs at 1/8th capacity while its siblings idle.
		{"sameshard", serve.SameShardScenario(17, ticks, perTick, shards, "t0")},
	}
	for _, s := range scenarios {
		var reports [2]serve.LoadReport
		var stats [2]serve.AdaptStats
		var obsSnaps [2]serve.ObserveSnapshot
		var badFlows [2]int
		for i, adaptive := range []bool{false, true} {
			rep, as, obs, bad := run(s.sc, adaptive)
			reports[i], stats[i], obsSnaps[i], badFlows[i] = rep, as, obs, bad
			label := "static"
			if adaptive {
				label = "adaptive"
			}
			res.Table.AddRow(s.name, label,
				rep.Offered, rep.Completed, 100*rep.ShedRate(),
				float64(rep.P99)/float64(time.Microsecond),
				as.Steals, as.BatchGrows+as.BatchShrinks,
			)
		}
		st, ad := reports[0], reports[1]
		res.Metrics[s.name+"_static_p99_us"] = float64(st.P99) / float64(time.Microsecond)
		res.Metrics[s.name+"_adaptive_p99_us"] = float64(ad.P99) / float64(time.Microsecond)
		res.Metrics[s.name+"_static_shed_rate"] = st.ShedRate()
		res.Metrics[s.name+"_adaptive_shed_rate"] = ad.ShedRate()
		if ad.P99 > 0 {
			res.Metrics[s.name+"_p99_speedup"] = float64(st.P99) / float64(ad.P99)
		}
		res.Metrics[s.name+"_steals"] = float64(stats[1].Steals)
		res.Metrics[s.name+"_batch_moves"] = float64(stats[1].BatchGrows + stats[1].BatchShrinks)
		// Observability cross-check: the adaptive run traces at rate 1, so
		// the controllers' decisions must show up as adapt events and the
		// flight recorder must have retained any shed/failed flows.
		res.Metrics[s.name+"_traced_flows"] = float64(obsSnaps[1].TracedFlows)
		res.Metrics[s.name+"_adapt_events"] = float64(obsSnaps[1].AdaptEvents)
		res.Metrics[s.name+"_recorded_bad_flows"] = float64(badFlows[1])
		if stats[0].Steals != 0 {
			panic(fmt.Sprintf("exp V2: static server stole %d jobs", stats[0].Steals))
		}
		if obsSnaps[0].Enabled {
			panic("exp V2: static server should not have observability enabled")
		}
	}
	return res
}
