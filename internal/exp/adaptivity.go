package exp

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/c64"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/percolate"
	"repro/internal/sched"
	"repro/internal/stats"
)

func init() {
	register("A1", ExpA1LoopAdapt)
	register("A2", ExpA2LoadBalance)
	register("A3", ExpA3Locality)
	register("A4", ExpA4Latency)
}

// lognormalCosts builds n iteration costs with the requested
// coefficient of variation (cv = 0 gives uniform costs).
func lognormalCosts(n int, cv float64, seed uint64) []float64 {
	costs := make([]float64, n)
	if cv == 0 {
		for i := range costs {
			costs[i] = 10
		}
		return costs
	}
	// For lognormal, cv^2 = exp(sigma^2) - 1.
	sigma := sigmaForCV(cv)
	r := stats.NewRNG(seed)
	for i := range costs {
		costs[i] = 10 * r.LogNormal(0, sigma)
	}
	return costs
}

func sigmaForCV(cv float64) float64 {
	// sigma = sqrt(ln(1+cv^2))
	v := cv*cv + 1
	s := 0.0
	for lo, hi := 0.0, 4.0; hi-lo > 1e-9; {
		s = (lo + hi) / 2
		if expApprox(s*s) < v {
			lo = s
		} else {
			hi = s
		}
	}
	return s
}

func expApprox(x float64) float64 {
	// Small helper to avoid importing math for one call chain; a
	// 16-term Taylor series is exact to well past the tolerance used.
	sum, term := 1.0, 1.0
	for i := 1; i < 24; i++ {
		term *= x / float64(i)
		sum += term
	}
	return sum
}

// ExpA1LoopAdapt measures loop-parallelism adaptation (Section 2,
// class 1): static block, fixed fine chunking, GSS, and the adaptive
// controller across iteration-cost variance levels, using the
// deterministic makespan evaluator. The adaptive controller runs five
// consecutive executions, retuning its grain between them from the
// recorded profile — its last-round makespan is reported.
func ExpA1LoopAdapt(scale int) *Result {
	res := newResult("A1", "EXP-A1: loop parallelism adaptation vs iteration-cost variance",
		"cost_cv", "strategy", "makespan", "imbalance", "chunks")
	const workers = 8
	const overhead = 3.0
	n := 2048 * scale

	for _, cv := range []float64{0, 0.5, 2} {
		costs := lognormalCosts(n, cv, 11)
		for _, sf := range []struct {
			name string
			fac  sched.Factory
		}{
			{"static-block", sched.StaticBlock()},
			{"chunked/16", sched.SelfSched(16)},
			{"gss", sched.GSS(1)},
		} {
			r := sched.Evaluate(costs, workers, sf.fac, overhead)
			res.Table.AddRow(cv, sf.name, r.Makespan, r.Imbalance, r.Chunks)
		}

		// Adaptive: five executions with profile-driven retuning; the
		// profile is reconstructed from the chunks the evaluator issued.
		a := sched.NewAdaptive()
		var last sched.EvalResult
		for round := 0; round < 5; round++ {
			fac := a.Factory()
			last = sched.Evaluate(costs, workers, fac, overhead)
			prof := a.Profile()
			k := a.Chunk()
			for lo := 0; lo < n; lo += k {
				hi := lo + k
				if hi > n {
					hi = n
				}
				var sum float64
				for i := lo; i < hi; i++ {
					sum += costs[i]
				}
				prof.RecordChunk(hi-lo, sum)
			}
			a.Retune(n, workers)
		}
		res.Table.AddRow(cv, "adaptive(5 rounds)", last.Makespan, last.Imbalance, last.Chunks)
		if cv == 2 {
			static := sched.Evaluate(costs, workers, sched.StaticBlock(), overhead)
			res.Metrics["adaptive_speedup_cv2"] = stats.Speedup(static.Makespan, last.Makespan)
		}
	}
	return res
}

// ExpA2LoadBalance measures dynamic load adaptation (Section 2, class
// 2): a skewed task batch — all work submitted to locale 0 — executed
// under the three stealing policies, on the real runtime.
func ExpA2LoadBalance(scale int) *Result {
	res := newResult("A2", "EXP-A2: dynamic load adaptation (thread migration) under skew",
		"policy", "skew", "time_ms", "migrations", "local_steals")
	const tasks = 600
	work := int64(60 * scale)

	for _, skew := range []int{1, 16} {
		for _, pol := range []core.StealPolicy{core.StealNone, core.StealLocal, core.StealGlobal} {
			mon := monitor.New()
			rt := core.NewRuntime(core.Config{
				Locales: 2, WorkersPerLocale: 2, Steal: pol, Monitor: mon, Seed: 9,
			})
			ms := timeIt(func() {
				for i := 0; i < tasks; i++ {
					locale := 0
					if skew == 1 && i%2 == 1 {
						locale = 1 // balanced submission
					}
					rt.GoAt(locale, 0, func(s *core.SGT) { spinWork(work) })
				}
				rt.Wait()
			})
			rt.Shutdown()
			snap := mon.Snapshot()
			res.Table.AddRow(pol.String(), skew, ms,
				snap.Counters["core.migrations"], snap.Counters["core.steal.local"])
			if skew == 16 {
				res.Metrics["time_"+pol.String()+"_skewed"] = ms
			}
		}
	}
	// The decision layer: what the controller would do given queue
	// snapshots.
	lc := adapt.NewLoadController()
	for _, pending := range [][]int{{10, 10, 10, 10}, {30, 10, 5, 3}, {40, 0, 0, 0}} {
		imb := adapt.Imbalance(pending)
		res.Table.AddRow("controller:"+lc.DecidePolicy(imb), fmt.Sprintf("queues=%v", pending),
			imb, int64(len(lc.Plan(pending))), int64(0))
	}
	return res
}

// ExpA3Locality measures locality adaptation (Section 2, class 3): a
// trace where locale 2 hammers objects homed at locale 0, with the
// locality manager off, migration-only, and migration+replication.
// Costs come from the directory's ring cost model; fully deterministic.
func ExpA3Locality(scale int) *Result {
	res := newResult("A3", "EXP-A3: locality adaptation (object migration + replication)",
		"variant", "total_cost", "remote_frac", "migrations", "replications")
	const periods = 8
	accessesPerPeriod := 200 * scale

	run := func(mode string) {
		space := mem.NewSpace(4, mem.RingCost{LocalLat: 10, HopLat: 40, ByteCost: 1})
		lm := adapt.NewLocalityManager(space)
		if mode == "migrate-only" {
			// Disable the replication arm of the policy: every hot
			// object moves instead (the migrate-only ablation).
			lm.DisableReplication = true
		}
		// Objects: 8 write-shared, 8 read-mostly, homed at locale 0.
		var writeShared, readMostly []mem.ObjID
		for i := 0; i < 8; i++ {
			writeShared = append(writeShared, space.Alloc(0, 256))
			readMostly = append(readMostly, space.Alloc(0, 256))
		}
		r := stats.NewRNG(3)
		for period := 0; period < periods; period++ {
			for a := 0; a < accessesPerPeriod; a++ {
				if a%2 == 0 {
					// Write-shared objects: locale 2 dominates, so the
					// right move is migration to 2.
					loc := mem.Locale(2)
					if r.Intn(10) == 0 {
						loc = mem.Locale(r.Intn(4))
					}
					obj := writeShared[r.Intn(len(writeShared))]
					if a%4 == 0 {
						space.WriteAccess(loc, obj, 16)
					} else {
						space.ReadAccess(loc, obj, 16)
					}
				} else {
					// Read-mostly objects: every locale reads them, so
					// replication serves all readers where migration can
					// serve only one.
					loc := mem.Locale(r.Intn(4))
					space.ReadAccess(loc, readMostly[r.Intn(len(readMostly))], 16)
				}
			}
			if mode != "off" {
				lm.Rebalance()
			}
		}
		st := space.Stats()
		res.Table.AddRow(mode, st.TotalCost, space.RemoteFraction(), st.Migrations, st.Replications)
		res.Metrics["cost_"+mode] = float64(st.TotalCost)
	}
	run("off")
	run("migrate-only")
	run("adaptive")
	return res
}

// ExpA4Latency measures latency adaptation (Section 2, class 4): the
// percolation engine across a DRAM-latency sweep with percolation off,
// fixed shallow depth, and the adaptive depth rule. Deterministic
// virtual cycles.
func ExpA4Latency(scale int) *Result {
	res := newResult("A4", "EXP-A4: latency adaptation (adaptive percolation depth) vs DRAM latency",
		"dram_lat", "variant", "cycles", "stage_wait", "depth")
	nTasks := 24 * scale

	mkTasks := func() []*percolate.Task {
		tasks := make([]*percolate.Task, nTasks)
		for i := range tasks {
			t := &percolate.Task{Compute: 300, Touches: 3}
			for b := 0; b < 4; b++ {
				t.Inputs = append(t.Inputs, percolate.Block{
					Addr: c64.Addr{Node: 0, Region: c64.DRAM, Line: int64(i*4 + b)},
					Size: 256,
				})
			}
			tasks[i] = t
		}
		return tasks
	}
	run := func(dramLat int64, depth int) percolate.Result {
		m := c64.New(c64.Config{UnitsPerNode: 8, DRAMLat: dramLat})
		e := percolate.New(m, percolate.Config{Workers: 2, Depth: depth})
		e.Launch(mkTasks())
		m.MustRun()
		return e.Result()
	}

	for _, lat := range []int64{20, 80, 320} {
		off := run(lat, 0)
		res.Table.AddRow(lat, "off", off.Elapsed, off.StageWait, 0)

		fixed := run(lat, 1)
		res.Table.AddRow(lat, "fixed/1", fixed.Elapsed, fixed.StageWait, 1)

		// Adaptive: probe with depth 1, then apply the controller rule.
		probe := run(lat, 1)
		stagePer := probe.StageWait/int64(nTasks) + lat // approx stage time per task
		depth := adapt.SuggestDepth(stagePer*4, 300, 16)
		ad := run(lat, depth)
		res.Table.AddRow(lat, "adaptive", ad.Elapsed, ad.StageWait, depth)
		if lat == 320 {
			res.Metrics["speedup_adaptive_vs_off"] = stats.Speedup(float64(off.Elapsed), float64(ad.Elapsed))
		}
	}
	return res
}
