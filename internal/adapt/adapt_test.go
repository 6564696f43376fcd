package adapt

import (
	"testing"

	"repro/internal/hints"
	"repro/internal/mem"
	"repro/internal/monitor"
)

func TestImbalance(t *testing.T) {
	if v := Imbalance([]int{5, 5, 5, 5}); v != 1 {
		t.Errorf("balanced = %v, want 1", v)
	}
	if v := Imbalance([]int{20, 0, 0, 0}); v != 4 {
		t.Errorf("all-on-one = %v, want 4", v)
	}
	if v := Imbalance(nil); v != 0 {
		t.Errorf("empty = %v, want 0", v)
	}
	if v := Imbalance([]int{0, 0}); v != 0 {
		t.Errorf("idle = %v, want 0", v)
	}
}

func TestPlanMovesSurplus(t *testing.T) {
	lc := NewLoadController()
	plans := lc.Plan([]int{16, 0, 0, 0})
	if len(plans) == 0 {
		t.Fatal("expected migrations for skewed load")
	}
	// Apply the plan and check the result is balanced.
	work := []int{16, 0, 0, 0}
	for _, p := range plans {
		work[p.From] -= p.Count
		work[p.To] += p.Count
	}
	if Imbalance(work) > 1.8 {
		t.Errorf("after plan imbalance = %v, work = %v", Imbalance(work), work)
	}
}

func TestPlanBalancedNoop(t *testing.T) {
	lc := NewLoadController()
	if plans := lc.Plan([]int{5, 5, 5}); len(plans) != 0 {
		t.Errorf("balanced load should need no migrations, got %v", plans)
	}
	if plans := lc.Plan([]int{3}); plans != nil {
		t.Error("single locale cannot migrate")
	}
}

func TestDecidePolicy(t *testing.T) {
	lc := NewLoadController()
	if p := lc.DecidePolicy(1.0); p != "none" {
		t.Errorf("balanced -> %q, want none", p)
	}
	if p := lc.DecidePolicy(1.5); p != "local" {
		t.Errorf("mild -> %q, want local", p)
	}
	if p := lc.DecidePolicy(4.0); p != "global" {
		t.Errorf("severe -> %q, want global", p)
	}
}

func newSpace() *mem.Space {
	return mem.NewSpace(4, mem.RingCost{LocalLat: 10, HopLat: 40, ByteCost: 1})
}

func TestLocalityMigratesWriteHeavy(t *testing.T) {
	s := newSpace()
	lm := NewLocalityManager(s)
	id := s.Alloc(0, 64)
	for i := 0; i < 10; i++ {
		s.WriteAccess(2, id, 8)
		s.ReadAccess(2, id, 8)
	}
	actions, cost := lm.Rebalance()
	if len(actions) != 1 || actions[0].Kind != "migrate" || actions[0].To != 2 {
		t.Fatalf("actions = %v, want migrate to 2", actions)
	}
	if cost <= 0 {
		t.Error("migration should have cost")
	}
	if s.Home(id) != 2 {
		t.Errorf("home = %d after rebalance, want 2", s.Home(id))
	}
}

func TestLocalityReplicatesReadMostly(t *testing.T) {
	s := newSpace()
	lm := NewLocalityManager(s)
	id := s.Alloc(0, 64)
	for i := 0; i < 20; i++ {
		s.ReadAccess(3, id, 8)
	}
	actions, _ := lm.Rebalance()
	if len(actions) != 1 || actions[0].Kind != "replicate" || actions[0].To != 3 {
		t.Fatalf("actions = %v, want replicate to 3", actions)
	}
	if !s.HasValidReplica(id, 3) {
		t.Error("replica not installed")
	}
	if s.Home(id) != 0 {
		t.Error("read-mostly object should keep its home")
	}
}

func TestLocalityLeavesColdObjectsAlone(t *testing.T) {
	s := newSpace()
	lm := NewLocalityManager(s)
	id := s.Alloc(0, 64)
	s.ReadAccess(1, id, 8) // below MinAccesses
	if actions := lm.Analyze(); len(actions) != 0 {
		t.Errorf("cold object produced actions: %v", actions)
	}
}

func TestLocalityHomeDominantNoop(t *testing.T) {
	s := newSpace()
	lm := NewLocalityManager(s)
	id := s.Alloc(1, 64)
	for i := 0; i < 20; i++ {
		s.ReadAccess(1, id, 8)
		s.WriteAccess(1, id, 8)
	}
	if actions := lm.Analyze(); len(actions) != 0 {
		t.Errorf("home-dominant object produced actions: %v", actions)
	}
}

func TestLocalityActionString(t *testing.T) {
	a := LocalityAction{Obj: 3, Kind: "migrate", To: 2}
	if a.String() != "migrate obj3 -> locale 2" {
		t.Errorf("String = %q", a.String())
	}
}

func TestLatencyDepthTracksEWMA(t *testing.T) {
	mon := monitor.New()
	lc := NewLatencyController(mon)
	mon.EWMA("percolate.stage", 0.2).Observe(800)
	mon.EWMA("percolate.compute", 0.2).Observe(100)
	d := lc.Depth()
	if d < 8 {
		t.Errorf("depth = %d, want >= 8 when staging dominates", d)
	}
	mon2 := monitor.New()
	lc2 := NewLatencyController(mon2)
	mon2.EWMA("percolate.stage", 0.2).Observe(10)
	mon2.EWMA("percolate.compute", 0.2).Observe(1000)
	if d := lc2.Depth(); d != 1 {
		t.Errorf("depth = %d, want 1 when compute dominates", d)
	}
}

func TestPreferParcelCrossover(t *testing.T) {
	lc := NewLatencyController(monitor.New())
	lc.ParcelOverhead = 100
	if lc.PreferParcel(10, 1) {
		t.Error("small data should be fetched")
	}
	if !lc.PreferParcel(1000, 1) {
		t.Error("large data should move the work instead")
	}
	x := lc.CrossoverBytes(1)
	if !lc.PreferParcel(x, 1) || lc.PreferParcel(x-2, 1) {
		t.Errorf("crossover %d inconsistent with PreferParcel", x)
	}
	if lc.CrossoverBytes(0) < 1<<40 {
		t.Error("zero latency should mean never prefer parcels")
	}
}

func TestLoopControllerStrategies(t *testing.T) {
	db := hints.NewDB()
	c := NewLoopController(db)
	for _, strat := range []string{"static", "cyclic", "self", "chunked", "gss", "factoring", "trapezoid", "adaptive"} {
		h := &hints.Hint{
			Name: "s", Target: hints.TargetCompiler, Category: hints.CatComputation,
			Priority: 50, Params: map[string]string{"strategy": strat, "chunk": "4"},
		}
		if err := db.AddHint(h); err != nil {
			t.Fatal(err)
		}
		f := c.FactoryFor("loop1")
		s := f(100, 4)
		// Drain to prove the factory produced a working scheduler.
		covered := 0
		for w := 0; w < 4; w++ {
			for {
				ch, ok := s.Next(w)
				if !ok {
					break
				}
				covered += ch.Size()
			}
		}
		if covered != 100 {
			t.Errorf("strategy %s covered %d, want 100", strat, covered)
		}
	}
}

func TestLoopControllerNilDBDefaultsToAdaptive(t *testing.T) {
	c := NewLoopController(nil)
	f := c.FactoryFor("loop1")
	s := f(64, 4)
	if _, ok := s.Next(0); !ok {
		t.Error("default factory should produce work")
	}
	if c.Adaptive("loop1") != c.Adaptive("loop1") {
		t.Error("per-loop tuner should be stable")
	}
	if got := c.Retune("loop1", 64, 4); got < 1 {
		t.Errorf("Retune = %d", got)
	}
}

func TestSuggestDepth(t *testing.T) {
	cases := []struct {
		stage, compute int64
		max, want      int
	}{
		{100, 100, 8, 2},
		{1000, 100, 8, 8}, // clipped at max
		{10, 1000, 8, 1},  // compute-bound: minimal depth
		{100, 0, 8, 8},    // no compute: stage as deep as possible
		{500, 100, 4, 4},
	}
	for _, c := range cases {
		if got := SuggestDepth(c.stage, c.compute, c.max); got != c.want {
			t.Errorf("SuggestDepth(%d,%d,%d) = %d, want %d", c.stage, c.compute, c.max, got, c.want)
		}
	}
}

func TestSuggestDepthMinimums(t *testing.T) {
	if d := SuggestDepth(0, 100, 0); d != 1 {
		t.Errorf("depth = %d, want 1 with degenerate max", d)
	}
}
