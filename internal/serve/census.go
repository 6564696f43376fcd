package serve

import (
	"sync/atomic"
	"time"
)

// Census is the exactly-once tally of a scripted run of n requests:
// request i resolves through Resolve(i, r), which counts its first
// resolution by status and every later one as a duplicate. It is the
// one per-request exactly-once check of PlayScenario, the cluster's
// scripted runs and the experiments.
type Census struct {
	seen     []atomic.Bool
	byStatus [StatusFailed + 1]atomic.Int64
	dups     atomic.Int64
	open     atomic.Int64  // indices not resolved yet
	slowest  atomic.Int64  // the slowest first resolution's Result.Total, ns
	all      chan struct{} // closed when open reaches 0
}

// NewCensus returns the census of a run of n requests.
func NewCensus(n int) *Census {
	c := &Census{seen: make([]atomic.Bool, n), all: make(chan struct{})}
	c.open.Store(int64(n))
	if n == 0 {
		close(c.all)
	}
	return c
}

// Resolve counts one resolution of request i and reports whether it
// was i's first.
func (c *Census) Resolve(i int, r Result) bool {
	if c.seen[i].Swap(true) {
		c.dups.Add(1)
		return false
	}
	c.byStatus[min(r.Status, StatusFailed)].Add(1)
	for cur := c.slowest.Load(); int64(r.Total) > cur && !c.slowest.CompareAndSwap(cur, int64(r.Total)); {
		cur = c.slowest.Load()
	}
	if c.open.Add(-1) == 0 {
		close(c.all)
	}
	return true
}

// Wait blocks until every request has resolved, or bound has passed;
// a later Tally counts the requests still open as Unresolved.
func (c *Census) Wait(bound time.Duration) {
	select {
	case <-c.all:
	case <-time.After(bound):
	}
}

// Tally is one read of a census. Every read is current: a duplicate
// that lands after a Wait returned shows in a later read.
type Tally struct {
	// OK, Rejected, Shed and Failed count first resolutions by status,
	// Duplicates the resolutions past a request's first, and Unresolved
	// the requests not resolved yet.
	OK, Rejected, Shed, Failed, Duplicates, Unresolved int
	// Slowest is the largest Result.Total of a first resolution.
	Slowest time.Duration
}

// Tally reads the census.
func (c *Census) Tally() Tally {
	n := func(st Status) int { return int(c.byStatus[st].Load()) }
	return Tally{
		OK: n(StatusOK), Rejected: n(StatusRejected), Shed: n(StatusShed), Failed: n(StatusFailed),
		Duplicates: int(c.dups.Load()), Unresolved: int(c.open.Load()),
		Slowest: time.Duration(c.slowest.Load()),
	}
}
