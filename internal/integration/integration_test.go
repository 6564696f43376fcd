// Package integration exercises whole-stack paths that no single
// package test covers: the Fig. 1 loop against real executions, the
// applications on the full LITL-X system, and the adaptivity
// controllers reacting to live monitor data.
package integration

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/apps/neuro"
	"repro/internal/c64"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/hints"
	"repro/internal/litlx"
	"repro/internal/loopir"
	"repro/internal/monitor"
	"repro/internal/parcel"
	"repro/internal/percolate"
)

// TestFullStackNeuro drives the neuroscience app through the LITL-X
// system: hints select the strategy, ParallelFor runs the phases, the
// monitor records, facts flow into the knowledge DB, and a rule fires.
func TestFullStackNeuro(t *testing.T) {
	sys, err := litlx.New(litlx.Config{
		Locales:          2,
		WorkersPerLocale: 4,
		Script: `
hint grain target=compiler category=computation-pattern priority=60 strategy=gss chunk=1
rule grain when core.sgt.spawn > 1000000 set strategy=static
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	p := neuro.DefaultParams()
	p.Columns = 8
	p.Compartments = 8
	net := neuro.Build(p)
	seq := neuro.Build(p)
	const steps = 20

	for s := 0; s < steps; s++ {
		sys.ParallelFor("update", net.N, func(i int) {}) // phase placeholder keeps tuner exercised
		_ = s
	}
	// Run the physics through the hierarchical runner on the same
	// system runtime and check it against sequential.
	net.RunHierarchical(sys.RT, steps, 2)
	seq.RunSequential(steps)
	sys.Wait()
	if net.TotalSpikes() != seq.TotalSpikes() {
		t.Errorf("spikes %d != %d", net.TotalSpikes(), seq.TotalSpikes())
	}

	rep := sys.Snapshot()
	if rep.Counters["core.sgt.spawn"] == 0 {
		t.Error("monitor saw no SGT activity")
	}
	if _, ok := sys.DB.Fact("core.sgt.spawn"); !ok {
		t.Error("facts not published to the knowledge DB")
	}
	// The rule threshold was not reached; strategy must still be gss.
	params := sys.DB.Effective(hints.TargetCompiler, hints.CatComputation)
	if params["strategy"] != "gss" {
		t.Errorf("strategy = %q, want gss", params["strategy"])
	}
}

// TestCompileExecuteFeedback closes the continuous-compilation loop
// against a real execution: a compiled plan's thread partition is
// executed as actual SGTs, the observed time feeds Recompile, and the
// revised plan still executes correctly.
func TestCompileExecuteFeedback(t *testing.T) {
	mon := monitor.New()
	db := hints.NewDB()
	comp := compiler.New(db, loopir.DefaultResources(), mon)
	nest := &loopir.Nest{
		Name:  "axpy",
		Trips: []int{128},
		Ops: []loopir.Op{
			{ID: 0, Name: "load", Latency: 3, Resource: loopir.MEM},
			{ID: 1, Name: "fma", Latency: 4, Resource: loopir.FPU},
			{ID: 2, Name: "store", Latency: 1, Resource: loopir.MEM},
		},
		Deps: []loopir.Dep{
			{From: 0, To: 1, Distance: []int{0}},
			{From: 1, To: 2, Distance: []int{0}},
		},
	}
	plans, err := comp.Compile(&compiler.Program{Name: "p", Nests: []*loopir.Nest{nest}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fp := plans[0]

	rt := core.NewRuntime(core.Config{WorkersPerLocale: 4, Monitor: mon})
	defer rt.Shutdown()

	// Execute the plan: one SGT per thread, each running its block of
	// pipelined iterations (bodies are stand-ins; what matters is the
	// thread structure the plan dictates).
	var ran atomic.Int64
	execute := func(threads int) {
		per := (nest.Trips[0] + threads - 1) / threads
		done := make(chan struct{}, threads)
		for th := 0; th < threads; th++ {
			rt.Go(func(s *core.SGT) {
				for i := 0; i < per; i++ {
					ran.Add(1)
				}
				done <- struct{}{}
			})
		}
		for th := 0; th < threads; th++ {
			<-done
		}
	}
	execute(fp.Threads)
	if ran.Load() < int64(nest.Trips[0]) {
		t.Fatalf("plan execution covered %d iterations, want >= %d", ran.Load(), nest.Trips[0])
	}

	// Pretend the observation was 4x the prediction; the compiler must
	// revise, and the revised plan must still be executable.
	next, revised := comp.Recompile(fp, fp.PredictedCycles*4, mon.Snapshot())
	if !revised {
		t.Fatal("no revision despite 4x slowdown")
	}
	ran.Store(0)
	execute(next.Threads)
	if ran.Load() < int64(nest.Trips[0]) {
		t.Errorf("revised plan execution incomplete")
	}
	rt.Wait()
}

// TestMonitorDrivenPercolation closes the latency-adaptation loop on
// the simulator: a probe run feeds the monitor, the controller picks a
// depth, and the adapted run beats the probe configuration.
func TestMonitorDrivenPercolation(t *testing.T) {
	mon := monitor.New()
	lat := adapt.NewLatencyController(mon)

	mk := func() []*percolate.Task {
		tasks := make([]*percolate.Task, 16)
		for i := range tasks {
			tasks[i] = &percolate.Task{
				Compute: 200, Touches: 3,
				Inputs: []percolate.Block{{
					Addr: c64.Addr{Node: 0, Region: c64.DRAM, Line: int64(i)}, Size: 512,
				}},
			}
		}
		return tasks
	}
	run := func(depth int) percolate.Result {
		m := c64.New(c64.Config{UnitsPerNode: 8, DRAMLat: 300})
		e := percolate.New(m, percolate.Config{Workers: 2, Depth: depth})
		e.Launch(mk())
		m.MustRun()
		return e.Result()
	}

	probe := run(1)
	mon.EWMA("percolate.stage", 0.2).Observe(float64(probe.StageWait) / 16)
	mon.EWMA("percolate.compute", 0.2).Observe(200)
	depth := lat.Depth()
	if depth <= 1 {
		t.Fatalf("controller picked depth %d despite staging bottleneck", depth)
	}
	adapted := run(depth)
	if adapted.Elapsed >= probe.Elapsed {
		t.Errorf("adapted depth %d (%d cycles) should beat probe depth 1 (%d)",
			depth, adapted.Elapsed, probe.Elapsed)
	}
}

// TestParcelDrivenLocality runs a parcel workload over the runtime
// while the global-space directory tracks accesses, then lets the
// locality manager fix the placement.
func TestParcelDrivenLocality(t *testing.T) {
	sys, err := litlx.New(litlx.Config{Locales: 4, WorkersPerLocale: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	obj := sys.Space.Alloc(0, 512)
	sys.Net.Register("touch", func(c *parcel.Ctx) interface{} {
		sys.Space.ReadAccess(3, obj, 64)
		return nil
	})
	for i := 0; i < 20; i++ {
		// Handlers always run at locale 3: reads pile up remotely.
		sys.Net.Send(0, 3, "touch", nil)
	}
	sys.Wait()

	actions, cost := sys.Locality.Rebalance()
	if len(actions) == 0 {
		t.Fatal("locality manager found nothing to fix")
	}
	if cost <= 0 {
		t.Error("movement should have cost")
	}
	// 20 reads, 0 writes: read-mostly -> replicate at locale 3.
	found := false
	for _, a := range actions {
		if a.Kind == "replicate" && a.To == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected replication at locale 3, got %v", actions)
	}
	if a := sys.Space.ReadAccess(3, obj, 64); a.Remote {
		t.Error("read after rebalance should be local")
	}
}

// TestLoadControllerAgainstRuntime checks that the decision layer's
// policy recommendation matches what actually helps on the runtime.
func TestLoadControllerAgainstRuntime(t *testing.T) {
	lc := adapt.NewLoadController()
	// Severely skewed queues: controller says global.
	if p := lc.DecidePolicy(adapt.Imbalance([]int{100, 0, 0, 0})); p != "global" {
		t.Fatalf("policy = %q", p)
	}
	// And global stealing indeed completes skewed work with migrations.
	// Locale 0's workers hold their tasks on a gate that the first task
	// running on locale 1 opens, so they cannot drain the queue before a
	// thief steals; the deadline turns a missing steal into a failure
	// instead of a hang.
	mon := monitor.New()
	rt := core.NewRuntime(core.Config{Locales: 2, WorkersPerLocale: 2, Steal: core.StealGlobal, Monitor: mon})
	defer rt.Shutdown()
	gate := make(chan struct{})
	var open sync.Once
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var n atomic.Int64
	for i := 0; i < 200; i++ {
		rt.GoAt(0, 0, func(s *core.SGT) {
			if s.ExecLocale() == 0 {
				select {
				case <-gate:
				case <-deadline.Done():
				}
			} else {
				open.Do(func() { close(gate) })
			}
			x := 0
			for j := 0; j < 50000; j++ {
				x += j
			}
			_ = x
			n.Add(1)
		})
	}
	rt.Wait()
	if n.Load() != 200 {
		t.Errorf("ran %d tasks", n.Load())
	}
	select {
	case <-gate:
	default:
		t.Fatal("no task ran on locale 1 within 10s under global stealing")
	}
	if mon.Counter("core.migrations").Value() == 0 {
		t.Error("expected migrations under skew with global stealing")
	}
}
