package exp

import (
	"repro/internal/apps/md"
	"repro/internal/apps/neuro"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/syncx"
)

func init() {
	register("N1", ExpN1Neuro)
	register("M1", ExpM1MD)
	register("G1", ExpG1GrainCost)
}

// ExpN1Neuro executes the Section 5.2 neuroscience plan: characterize
// the code sequentially, then run the HTVM implementation across
// problem sizes, reporting time and spike throughput.
func ExpN1Neuro(scale int) *Result {
	res := newResult("N1", "EXP-N1: neuroscience code, base characterization vs HTVM",
		"size_factor", "variant", "neurons", "time_ms", "kspikes_per_s", "speedup")
	const steps = 40
	for _, f := range []int{1, 2 * scale} {
		p := neuro.DefaultParams().Scale(f)

		seq := neuro.Build(p)
		seqMS := timeIt(func() { seq.RunSequential(steps) })
		res.Table.AddRow(f, "sequential", seq.N, seqMS,
			float64(seq.TotalSpikes())/seqMS, 1.0)

		hier := neuro.Build(p)
		rt := core.NewRuntime(core.Config{Locales: p.Regions, WorkersPerLocale: 2})
		colsPerSGT := hier.TotalColumns() / (2 * rt.Workers())
		if colsPerSGT < 1 {
			colsPerSGT = 1
		}
		hierMS := timeIt(func() { hier.RunHierarchical(rt, steps, colsPerSGT); rt.Wait() })
		rt.Shutdown()
		res.Table.AddRow(f, "htvm-hierarchical", hier.N, hierMS,
			float64(hier.TotalSpikes())/hierMS, stats.Speedup(seqMS, hierMS))

		if seq.TotalSpikes() != hier.TotalSpikes() {
			panic("exp: N1 spike counts diverged between runners")
		}
		if f > 1 {
			res.Metrics["neuro_speedup"] = stats.Speedup(seqMS, hierMS)
		}
	}
	return res
}

// ExpM1MD executes the Section 5.2 molecular-dynamics plan: the
// solvated-protein system with the force loop under static and dynamic
// scheduling, plus the cell-occupancy imbalance that explains the gap.
func ExpM1MD(scale int) *Result {
	res := newResult("M1", "EXP-M1: molecular dynamics, static vs dynamic force scheduling",
		"variant", "workers", "time_ms", "speedup", "occupancy_cv")
	p := md.DefaultParams().Scale(scale)
	const steps = 10

	occ := md.Build(p).CellOccupancy()
	occF := make([]float64, len(occ))
	for i, o := range occ {
		occF[i] = float64(o)
	}
	occCV := stats.CV(occF)

	seq := md.Build(p)
	seqMS := timeIt(func() { seq.RunSequential(steps) })
	res.Table.AddRow("sequential", 1, seqMS, 1.0, occCV)

	for _, workers := range []int{4, 8} {
		for _, sf := range []struct {
			name string
			fac  sched.Factory
		}{
			{"static-block", sched.StaticBlock()},
			{"gss", sched.GSS(1)},
			{"factoring", sched.Factoring(1)},
		} {
			sys := md.Build(p)
			rt := core.NewRuntime(core.Config{WorkersPerLocale: workers})
			ms := timeIt(func() { sys.RunParallel(rt, steps, workers, sf.fac); rt.Wait() })
			rt.Shutdown()
			res.Table.AddRow(sf.name, workers, ms, stats.Speedup(seqMS, ms), occCV)
			if workers == 8 && sf.name == "gss" {
				res.Metrics["md_gss_speedup_8w"] = stats.Speedup(seqMS, ms)
			}
		}
	}
	return res
}

// ExpG1GrainCost regenerates the thread-grain cost model of Section
// 3.1: measured invocation + completion cost per thread at each level
// of the hierarchy (LGT goroutines, SGT tasks, TGT fibers), the
// concrete numbers behind "cost of SGT invocation and management is
// much lower when comparing with large-grain threads". Each level's
// cost is the median of five interleaved LGT/SGT/TGT rounds, so a
// burst of machine noise lands on one round of every level instead of
// on all of one level.
func ExpG1GrainCost(scale int) *Result {
	res := newResult("G1", "EXP-G1: thread grain invocation cost (ns/op)",
		"level", "count", "ns_per_op")
	count := 20000 * scale

	rt := core.NewRuntime(core.Config{WorkersPerLocale: 4})
	defer rt.Shutdown()

	// LGT: spawn + join dedicated goroutines with private heap touch.
	lgtN := count / 10 // LGTs are heavy; fewer reps suffice
	lgt := func() float64 {
		return timeIt(func() {
			for i := 0; i < lgtN; i++ {
				l := rt.SpawnLGT(0, func(l *core.LGT) { l.Heap().Alloc(64) })
				l.Done().Get()
			}
		}) * 1e6 / float64(lgtN)
	}

	// SGT: spawn + completion through the pool, batched.
	sgt := func() float64 {
		return timeIt(func() {
			var done syncx.Counter
			for i := 0; i < count; i++ {
				rt.Go(func(s *core.SGT) { done.Done(1) })
			}
			done.SetTarget(count)
			done.Wait()
		}) * 1e6 / float64(count)
	}

	// TGT: fibers created and fired inside one SGT (shared frame).
	tgt := func() float64 {
		return timeIt(func() {
			finished := make(chan struct{})
			rt.GoAt(0, 64, func(s *core.SGT) {
				remaining := count
				var chain func()
				chain = func() {
					if remaining == 0 {
						close(finished)
						return
					}
					remaining--
					s.NewFiber(0, func(f *core.Fiber) { chain() })
				}
				chain()
			})
			<-finished
		}) * 1e6 / float64(count)
	}

	const rounds = 5
	var lgts, sgts, tgts []float64
	for r := 0; r < rounds; r++ {
		lgts = append(lgts, lgt())
		sgts = append(sgts, sgt())
		tgts = append(tgts, tgt())
	}
	lgtNS := stats.Summarize(lgts).P50
	sgtNS := stats.Summarize(sgts).P50
	tgtNS := stats.Summarize(tgts).P50
	res.Table.AddRow("LGT", lgtN, lgtNS)
	res.Table.AddRow("SGT", count, sgtNS)
	res.Table.AddRow("TGT", count, tgtNS)

	res.Metrics["lgt_ns"] = lgtNS
	res.Metrics["sgt_ns"] = sgtNS
	res.Metrics["tgt_ns"] = tgtNS
	res.Metrics["lgt_over_tgt"] = lgtNS / tgtNS
	return res
}
