package contc

import (
	"testing"

	"repro/internal/hints"
)

func TestSketchZeroAllocUpdate(t *testing.T) {
	sk := NewKeySketch(512, 8)
	if n := testing.AllocsPerRun(2000, func() {
		sk.Update(7)
		sk.Update(1<<40 + 3)
	}); n != 0 {
		t.Fatalf("Update allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		_ = sk.Estimate(7)
	}); n != 0 {
		t.Fatalf("Estimate allocates %v per run, want 0", n)
	}
}

func TestSketchFindsHotKeys(t *testing.T) {
	sk := NewKeySketch(256, 4)
	for i := 0; i < 1000; i++ {
		sk.Update(42)
		if i%10 == 0 {
			sk.Update(7)
		}
		sk.Update(uint64(1000 + i)) // cold tail
	}
	top := sk.Top(2)
	if len(top) == 0 || top[0].Key != 42 {
		t.Fatalf("hottest key = %+v, want 42 first", top)
	}
	if est := sk.Estimate(42); est < 1000 {
		t.Fatalf("estimate for hot key = %d, want >= 1000", est)
	}
	// Count-min is biased high, never low.
	if est := sk.Estimate(7); est < 100 {
		t.Fatalf("estimate for warm key = %d, want >= 100", est)
	}
	sk.Decay()
	if est := sk.Estimate(42); est < 500 || est > 800 {
		t.Fatalf("post-decay estimate = %d, want about half", est)
	}
}

func TestSketchDeterministicTop(t *testing.T) {
	run := func() []KeyCount {
		sk := NewKeySketch(128, 4)
		for i := 0; i < 500; i++ {
			sk.Update(uint64(i % 7))
		}
		return sk.Top(4)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic top-K: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic top-K at %d: %v vs %v", i, a, b)
		}
	}
}

func TestPlannerDeterministic(t *testing.T) {
	pl := NewPlanner(hints.NewDB(), nil)
	a := pl.Plan("s", 64, 8, 120, 1.4)
	b := pl.Plan("s", 64, 8, 120, 1.4)
	if a.Strategy != b.Strategy || a.PredictedMakespanUS != b.PredictedMakespanUS {
		t.Fatalf("planner not deterministic: %+v vs %+v", a, b)
	}
	if a.Factory == nil || a.Strategy == "" {
		t.Fatalf("plan missing factory/strategy: %+v", a)
	}
}

func TestPlannerSkewPicksDynamic(t *testing.T) {
	pl := NewPlanner(hints.NewDB(), nil)
	uniform := pl.Plan("u", 256, 8, 100, 0.02)
	skewed := pl.Plan("s", 256, 8, 100, 2.5)
	if uniform.Strategy == "" || skewed.Strategy == "" {
		t.Fatal("empty strategy")
	}
	// Under heavy skew a dynamic scheduler must win over static block
	// partitioning; under near-zero variance static-block is optimal
	// (zero dispatch overhead beyond p chunks).
	if skewed.Strategy == "static-block" {
		t.Fatalf("skewed plan chose static-block: %+v", skewed)
	}
	if uniform.Strategy != "static-block" {
		t.Fatalf("uniform plan chose %q, want static-block", uniform.Strategy)
	}
}

func TestPlannerHintForcesStrategy(t *testing.T) {
	db := hints.NewDB()
	if err := db.AddHint(&hints.Hint{
		Name: "force", Target: hints.TargetCompiler, Category: hints.CatComputation,
		Priority: 90, Params: map[string]string{"strategy": "gss"},
	}); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(db, nil)
	p := pl.Plan("s", 64, 8, 100, 0.01)
	if p.Strategy != "gss" {
		t.Fatalf("hint did not force strategy: got %q", p.Strategy)
	}
}

func TestAssignCoversAllElements(t *testing.T) {
	pl := NewPlanner(hints.NewDB(), nil)
	for _, cv := range []float64{0.0, 1.0, 3.0} {
		p := pl.Plan("s", 37, 5, 80, cv)
		targets := make([]int, 37)
		p.Assign(37, 5, targets)
		seen := map[int]bool{}
		for i, w := range targets {
			if w < 0 || w >= 5 {
				t.Fatalf("cv=%v element %d assigned to worker %d", cv, i, w)
			}
			seen[w] = true
		}
		if len(seen) < 2 {
			t.Fatalf("cv=%v: all elements on one worker: %v", cv, targets)
		}
	}
}

func TestFactoryForRoundTrip(t *testing.T) {
	for _, name := range []string{"static-block", "static-cyclic/2", "self-sched", "chunked/4", "gss", "factoring", "affinity"} {
		f, ok := FactoryFor(name)
		if !ok || f == nil {
			t.Fatalf("FactoryFor(%q) failed", name)
		}
		s := f(16, 4)
		if _, ok := s.Next(0); !ok {
			t.Fatalf("%q scheduler dispatches nothing", name)
		}
	}
	if _, ok := FactoryFor("bogus"); ok {
		t.Fatal("FactoryFor accepted bogus name")
	}
}
