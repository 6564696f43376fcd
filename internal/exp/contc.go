package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hints"
	"repro/internal/litlx"
	"repro/internal/serve"
	"repro/internal/serve/contc"
)

func init() {
	register("V7", ExpContinuousCompile)
}

// ExpContinuousCompile is the continuous-compilation experiment: the
// same deterministic load scripts played against servers that differ
// only in Config.Compile — off, on (cold, empty hints DB), and warm
// (fed the cold run's learned policy through the hints-script round
// trip, the htserved -hints-file path). Two traffic modes cover the
// controller's two optimizations:
//
//   - flow: every arrival is a Map fan-out flow with a single shared
//     key, so all elements inherit one route and serialize on one shard
//     of eight — until the controller learns the stage's cost profile
//     and installs a scatter plan that spreads the fan-out.
//   - hotkey: 30% of plain requests hit one key whose general handler
//     is 10x the background cost; the tenant's Specialize hook supplies
//     the cheap compiled form, which only runs once the sketch promotes
//     the key into a fast-path slot.
//
// Handlers sleep rather than spin (the V2 convention), so per-shard
// capacity is pinned and the off/on shape is machine-independent even
// though absolute latencies are wall clock. The early_* columns are the
// warm-start claim: plans/promotions already installed a few controller
// ticks after startup, before any traffic — the cold server is still at
// zero, since it cannot plan without MinSamples observations.
func ExpContinuousCompile(scale int) *Result {
	res := newResult("V7", "EXP-V7: continuous compilation — learned scatter plans and hot-key fast paths, off vs cold vs warm",
		"mode", "config", "offered", "done", "shed_pct", "p99_us",
		"plans", "promotions", "fast_hits", "scattered", "early")

	const (
		shards = 8
		tick   = 500 * time.Microsecond
		fan    = 16
		every  = 500 * time.Microsecond
	)
	ticks := 100 * scale

	type arm struct {
		rep    serve.LoadReport
		as     serve.AdaptStats
		early  int64
		script string
		warmed []contc.Decision
	}

	// runFlow plays the shared-key fan-out script. compile selects the
	// controller; a non-nil db makes it a warm start.
	runFlow := func(compile bool, db *hints.DB) arm {
		sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 16})
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		cfg := serve.Config{Shards: shards, QueueDepth: 1 << 12, Batch: 4, InflightBatches: 2}
		if compile {
			cfg.Compile = serve.CompileConfig{Enabled: true, DB: db, Every: every, MinSamples: 32}
		}
		srv := serve.New(sys, cfg)
		defer srv.Close()
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name:    "t0",
			Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) { return nil, nil },
		})
		if err != nil {
			panic(err)
		}
		pl, err := tn.NewPipeline("scan", serve.Stage{
			Name: "map", Map: true,
			Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) {
				time.Sleep(400 * time.Microsecond)
				return nil, nil
			},
		})
		if err != nil {
			panic(err)
		}
		var out arm
		if compile {
			// Early checkpoint, before any traffic: only a warm start can
			// have installed a plan by now. 40 periods, not a handful: on
			// a loaded 2-CPU box the loop's first pass can be 2ms late.
			time.Sleep(40 * every)
			out.early = srv.AdaptStats().CompilePlans
			out.warmed = srv.CompileDecisions()
		}
		sc := serve.BurstyScenario(31, 1, ticks, 2, 0, 0, 1) // keys=1: every flow shares key 0
		out.rep = serve.PlayScenario(srv, sc, serve.PlayConfig{
			Tenants: []*serve.Tenant{tn}, Tick: tick,
			Submit: func(_ serve.Arrival, req serve.Request, done func(serve.Result)) error {
				elems := make([]any, fan)
				for i := range elems {
					elems[i] = i
				}
				req.Payload = elems
				return tn.SubmitFlowFunc(pl, req, done)
			},
		})
		out.as = srv.AdaptStats()
		if compile && db == nil {
			s, err := srv.HintsDB().ScriptString()
			if err != nil {
				panic(err)
			}
			out.script = s
		}
		return out
	}

	// runHot plays the skewed plain-request script against the
	// specializing tenant.
	runHot := func(compile bool, db *hints.DB) arm {
		sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 16})
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		cfg := serve.Config{Shards: shards, QueueDepth: 1 << 12, Batch: 4, InflightBatches: 2}
		if compile {
			// HotKeyMin 16: promote within the first few ticks, so the p99
			// reflects the specialized steady state rather than the slow
			// warm-up backlog. DecayEvery is pushed past the run length —
			// cooling is exercised by the serve tests; here the hot key
			// stays hot to the end.
			cfg.Compile = serve.CompileConfig{Enabled: true, DB: db, Every: every, HotKeyMin: 16, DecayEvery: 1 << 20}
		}
		srv := serve.New(sys, cfg)
		defer srv.Close()
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name: "t0",
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				if req.Key == 0 {
					time.Sleep(600 * time.Microsecond) // the un-specialized hot handler
				} else {
					time.Sleep(60 * time.Microsecond)
				}
				return nil, nil
			},
			Specialize: func(key uint64) serve.Handler {
				return func(_ *serve.Ctx, _ serve.Request) (any, error) {
					time.Sleep(60 * time.Microsecond) // the compiled fast path
					return nil, nil
				}
			},
		})
		if err != nil {
			panic(err)
		}
		var out arm
		if compile {
			time.Sleep(40 * every)
			out.early = srv.AdaptStats().HotPromotions
			out.warmed = srv.CompileDecisions()
		}
		sc := serve.HotKeyScenario(29, 1, ticks, 10, 4096, 0.3)
		out.rep = serve.PlayScenario(srv, sc, serve.PlayConfig{Tenants: []*serve.Tenant{tn}, Tick: tick})
		out.as = srv.AdaptStats()
		if compile && db == nil {
			s, err := srv.HintsDB().ScriptString()
			if err != nil {
				panic(err)
			}
			out.script = s
		}
		return out
	}

	parseDB := func(script string) *hints.DB {
		db := hints.NewDB()
		if err := hints.ParseScriptString(script, db); err != nil {
			panic(fmt.Sprintf("exp V7: persisted hints script does not re-parse: %v", err))
		}
		return db
	}

	for _, mode := range []struct {
		name string
		run  func(bool, *hints.DB) arm
	}{{"flow", runFlow}, {"hotkey", runHot}} {
		off := mode.run(false, nil)
		on := mode.run(true, nil)
		warm := mode.run(true, parseDB(on.script))

		for _, c := range []struct {
			label string
			a     arm
		}{{"off", off}, {"on", on}, {"warm", warm}} {
			res.Table.AddRow(mode.name, c.label,
				c.a.rep.Offered, c.a.rep.Completed, 100*c.a.rep.ShedRate(),
				float64(c.a.rep.P99)/float64(time.Microsecond),
				c.a.as.CompilePlans, c.a.as.HotPromotions,
				c.a.as.FastPathHits, c.a.as.ScatteredElems, c.a.early)
			res.Metrics[mode.name+"_"+c.label+"_p99_us"] = float64(c.a.rep.P99) / float64(time.Microsecond)
		}
		if on.rep.P99 > 0 {
			res.Metrics[mode.name+"_p99_speedup"] = float64(off.rep.P99) / float64(on.rep.P99)
		}
		res.Metrics[mode.name+"_cold_early"] = float64(on.early)
		res.Metrics[mode.name+"_warm_early"] = float64(warm.early)

		// The contract each arm must honor, independent of timing.
		if off.as.CompileEnabled || off.as.CompilePlans != 0 || off.as.FastPathHits != 0 {
			panic(fmt.Sprintf("exp V7: off arm ran the compiler: %+v", off.as))
		}
		if on.early != 0 {
			panic(fmt.Sprintf("exp V7: cold %s arm had %d decisions before traffic", mode.name, on.early))
		}
		if warm.early == 0 {
			panic(fmt.Sprintf("exp V7: warm %s arm installed nothing before traffic", mode.name))
		}
		warmKinds := false
		for _, d := range warm.warmed {
			if strings.HasPrefix(d.Kind, "warm-") {
				warmKinds = true
			}
		}
		if !warmKinds {
			panic(fmt.Sprintf("exp V7: warm %s arm decisions carry no warm-* kind: %+v", mode.name, warm.warmed))
		}
		switch mode.name {
		case "flow":
			if on.as.CompilePlans < 1 || on.as.ScatteredElems < fan {
				panic(fmt.Sprintf("exp V7: cold flow arm learned no scatter plan: %+v", on.as))
			}
		case "hotkey":
			if on.as.HotPromotions < 1 || on.as.FastPathHits < 1 {
				panic(fmt.Sprintf("exp V7: cold hotkey arm promoted nothing: %+v", on.as))
			}
		}
	}
	return res
}
