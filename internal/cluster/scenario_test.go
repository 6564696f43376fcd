package cluster

import (
	"testing"
)

func TestSplitBrainJoinScenario(t *testing.T) {
	cfg := SplitBrainJoinConfig{Seed: 7, Flows: 64}
	rep, err := SplitBrainJoinScenario(cfg)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if rep.Submitted != cfg.Flows {
		t.Errorf("submitted %d flows, want %d", rep.Submitted, cfg.Flows)
	}
	// The invariant under test: a node joining mid-load must not break
	// done-exactly-once.
	if rep.DoubleResolves != 0 {
		t.Errorf("%d flows resolved more than once, want 0", rep.DoubleResolves)
	}
	if rep.Unresolved != 0 {
		t.Errorf("%d flows never resolved, want 0", rep.Unresolved)
	}
	if rep.Completed != cfg.Flows {
		t.Errorf("completed %d flows, want %d", rep.Completed, cfg.Flows)
	}
	if rep.MembersBefore != 2 || rep.MembersAfter != 3 {
		t.Errorf("members %d -> %d, want 2 -> 3", rep.MembersBefore, rep.MembersAfter)
	}
	// The rebalance is a pure function of the member sets: the join must
	// move exactly the one arc the joiner's cut splits off.
	before := NewRing(runLocales, ids("kn-n0", "kn-n1"))
	after := NewRing(runLocales, ids("kn-n0", "kn-n1", "kn-n2"))
	if want := Moved(before, after); rep.MovedLocales != want {
		t.Errorf("rebalance moved %d locales, want %d", rep.MovedLocales, want)
	}
	// The joiner takes exactly the moved locales (one split arc — which
	// can be most of the space when the split arc was large).
	if got := len(after.Owned("kn-n2")); rep.MovedLocales == 0 || got != rep.MovedLocales {
		t.Errorf("joiner owns %d locales, %d moved — every moved locale must land on the joiner",
			got, rep.MovedLocales)
	}
	if rep.RemoteStages == 0 {
		t.Error("no stage executed away from its origin")
	}
	t.Logf("report: %+v", rep)
}

func TestSplitBrainJoinScenarioDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Completion counts (though not stage placement, which depends on how
	// far wave one has run when the join lands) are stable across runs.
	for run := 0; run < 3; run++ {
		rep, err := SplitBrainJoinScenario(SplitBrainJoinConfig{Seed: 42, Flows: 32})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.Completed != 32 || rep.DoubleResolves != 0 || rep.Unresolved != 0 {
			t.Fatalf("run %d: completed=%d doubles=%d unresolved=%d, want 32/0/0",
				run, rep.Completed, rep.DoubleResolves, rep.Unresolved)
		}
	}
}

func TestSplitBrainJoinScenarioDefaultsNonPositiveFlows(t *testing.T) {
	// A non-positive flow count means the default, as a zero one does.
	rep, err := SplitBrainJoinScenario(SplitBrainJoinConfig{Seed: 3, Flows: -1})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if rep.Submitted != 64 || rep.Completed != 64 || rep.DoubleResolves != 0 || rep.Unresolved != 0 {
		t.Fatalf("submitted=%d completed=%d doubles=%d unresolved=%d, want 64/64/0/0",
			rep.Submitted, rep.Completed, rep.DoubleResolves, rep.Unresolved)
	}
}
