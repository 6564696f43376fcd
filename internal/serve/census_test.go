package serve

import (
	"testing"
	"time"
)

// TestCensusCountsFirstResolutionOnce: each index is counted once, by
// the status of its first resolution; later ones are duplicates, and
// the slowest Total is kept.
func TestCensusCountsFirstResolutionOnce(t *testing.T) {
	c := NewCensus(5)
	for i, r := range []Result{
		{Status: StatusOK, Total: 3 * time.Millisecond},
		{Status: StatusShed, Total: 9 * time.Millisecond},
		{Status: StatusRejected},
		{Status: StatusFailed, Total: time.Millisecond},
		{Status: StatusOK, Total: 2 * time.Millisecond},
	} {
		if !c.Resolve(i, r) {
			t.Fatalf("index %d: first resolution reported as a duplicate", i)
		}
	}
	if c.Resolve(0, Result{Status: StatusFailed, Total: time.Hour}) {
		t.Fatal("second resolution of index 0 reported as its first")
	}
	c.Wait(time.Minute)
	want := Tally{OK: 2, Rejected: 1, Shed: 1, Failed: 1, Duplicates: 1, Slowest: 9 * time.Millisecond}
	if got := c.Tally(); got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
}

// TestCensusBoundedWaitCountsUnresolved: a wait that reaches its bound
// returns, and the index never resolved is counted Unresolved.
func TestCensusBoundedWaitCountsUnresolved(t *testing.T) {
	c := NewCensus(3)
	c.Resolve(0, Result{Status: StatusOK})
	c.Resolve(2, Result{Status: StatusOK})
	start := time.Now()
	c.Wait(20 * time.Millisecond)
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("bounded wait returned after %v, before its bound with an index open", took)
	}
	if got := c.Tally(); got.Unresolved != 1 || got.OK != 2 {
		t.Fatalf("tally %+v, want 2 ok and 1 unresolved", got)
	}
	c.Resolve(1, Result{Status: StatusOK})
	if got := c.Tally(); got.Unresolved != 0 || got.OK != 3 {
		t.Fatalf("tally %+v after the late resolution, want 3 ok and none unresolved", got)
	}
}

// TestCensusDuplicateAfterWaitCounted: a duplicate that lands after the
// wait returned is still counted by a later read — the cluster's
// scripted run settles after its wait for exactly this.
func TestCensusDuplicateAfterWaitCounted(t *testing.T) {
	c := NewCensus(2)
	go func() {
		c.Resolve(0, Result{Status: StatusOK})
		c.Resolve(1, Result{Status: StatusOK})
	}()
	c.Wait(time.Minute)
	if got := c.Tally(); got.OK != 2 || got.Duplicates != 0 || got.Unresolved != 0 {
		t.Fatalf("tally %+v at the wait, want 2 ok", got)
	}
	late := make(chan bool)
	go func() { late <- c.Resolve(1, Result{Status: StatusShed}) }()
	if <-late {
		t.Fatal("late duplicate reported as a first resolution")
	}
	if got := c.Tally(); got.Duplicates != 1 || got.OK != 2 || got.Shed != 0 {
		t.Fatalf("tally %+v, want the late duplicate counted and the first status kept", got)
	}
}

// TestCensusEmptyWaitReturns: a census of no requests has nothing to
// wait for.
func TestCensusEmptyWaitReturns(t *testing.T) {
	done := make(chan struct{})
	go func() { NewCensus(0).Wait(time.Hour); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wait on an empty census blocked")
	}
}
