package serve

// This file is the shard queue's bounded MPSC ring — the replacement
// for the mutex+condvar slice FIFO the admission hot path used to pay
// on every submit. Producers (submitters, stage hops, and the
// rebalancer inserting stolen jobs) are lock-free: admission is one CAS
// on the tail plus one slot publish. The consumers (the shard's batch
// SGTs) and the rebalancer's removal side serialize on consMu, which
// never sits on a producer's path.
//
// The slot protocol is the classic bounded-MPMC sequence scheme
// restricted to one consumer at a time: slot i carries a sequence
// number that equals the position p it is ready to accept (producer may
// write), p+1 once the job at p is published (consumer may read), and
// p+size after consumption (free for position p+size). Producers never
// read sequences — the head bound on reservation already guarantees
// their slot is free — so a push is exactly one CAS, one pointer store,
// and one sequence store.
//
// Capacity is exact: the ring refuses at `limit` (Config.QueueDepth)
// even though the cell array rounds up to a power of two, preserving
// the old queue's refusal semantics bit-for-bit.
//
// Nothing ever waits on the ring. Who starts a consumer is the shard's
// business (shard.kick): the ring only offers ready, the head-slot
// check both sides of that hand-off make after their own store.
import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ringCell is one slot: the published job and its sequence word.
type ringCell struct {
	seq atomic.Uint64
	job *Job
}

// jobRing is the bounded MPSC queue of one shard.
type jobRing struct {
	limit uint64 // exact capacity (refusal point); <= len(cells)
	mask  uint64 // len(cells) - 1
	cells []ringCell

	tail atomic.Uint64 // next position to reserve (producers)
	head atomic.Uint64 // next position to consume (consumer side)

	// inflight counts producers between begin and end; shutdown spins it
	// to zero, so once it returns no producer can still publish a job or
	// start a batch SGT.
	inflight atomic.Int64
	shut     atomic.Bool

	// consMu serializes the consumer side: the batch SGTs' drains and
	// the rebalancer's steal-from-source. Producers never take it.
	consMu sync.Mutex
}

func (r *jobRing) init(limit int) {
	if limit < 1 {
		limit = 1
	}
	size := uint64(1)
	for size < uint64(limit) {
		size <<= 1
	}
	r.limit = uint64(limit)
	r.mask = size - 1
	r.cells = make([]ringCell, size)
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
}

// begin enters a producer section; false means the ring is shut and the
// producer must refuse without touching it.
func (r *jobRing) begin() bool {
	r.inflight.Add(1)
	if r.shut.Load() {
		r.inflight.Add(-1)
		return false
	}
	return true
}

// end leaves a producer section.
func (r *jobRing) end() { r.inflight.Add(-1) }

// reserve claims up to want contiguous positions starting at pos,
// returning how many it got (0 when full): one for a push, a group for
// the rebalancer's steal, which may be granted part of it. Tail is read before head: a
// head read first can go stale while consumers advance it, and then a
// ring with room reads as full. Read after, head is never older than
// the tail the CAS confirms, so the free count only errs low.
func (r *jobRing) reserve(want int) (n int, pos uint64) {
	for {
		t := r.tail.Load()
		h := r.head.Load()
		free := int64(r.limit) - int64(t-h)
		if free <= 0 {
			return 0, 0
		}
		n = want
		if int64(n) > free {
			n = int(free)
		}
		if r.tail.CompareAndSwap(t, t+uint64(n)) {
			return n, t
		}
	}
}

// publish makes the job at position pos visible to the consumer. The
// slot is known free: reserve bounded pos by head, so its previous
// occupant (position pos-size) was consumed and the slot's sequence
// already equals pos.
func (r *jobRing) publish(pos uint64, j *Job) {
	c := &r.cells[pos&r.mask]
	c.job = j
	c.seq.Store(pos + 1)
}

// push publishes j and reports whether the ring had room for it. The
// caller is inside begin/end.
func (r *jobRing) push(j *Job) bool {
	n, pos := r.reserve(1)
	if n == 0 {
		return false
	}
	r.publish(pos, j)
	return true
}

// popMany moves up to max published jobs into buf and returns the
// appended buf plus the queue depth (reserved, not necessarily all
// published) observed before the cut. It stops at the first unpublished
// slot, never blocking on a straggling producer. Caller holds consMu.
func (r *jobRing) popMany(max int, buf []*Job) ([]*Job, int) {
	h := r.head.Load()
	t := r.tail.Load()
	depth := int(t - h)
	size := r.mask + 1
	n := uint64(0)
	for n < uint64(max) && h+n < t {
		c := &r.cells[(h+n)&r.mask]
		if c.seq.Load() != h+n+1 {
			break
		}
		buf = append(buf, c.job)
		n++
	}
	for i := uint64(0); i < n; i++ {
		c := &r.cells[(h+i)&r.mask]
		c.job = nil
		c.seq.Store(h + i + size)
	}
	if n > 0 {
		r.head.Store(h + n)
	}
	return buf, depth
}

// pending is the approximate queue depth — the rebalancer's load
// signal. Racy reads only skew one control tick.
func (r *jobRing) pending() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h { // torn read across a concurrent consume; clamp
		return 0
	}
	return int(t - h)
}

// ready reports whether the head slot holds a published job.
func (r *jobRing) ready() bool {
	h := r.head.Load()
	return r.cells[h&r.mask].seq.Load() == h+1
}

// shutdown closes the ring to producers and waits out the ones already
// inside begin/end: after it returns, every job the ring will ever hold
// is published and covered by a batch SGT.
func (r *jobRing) shutdown() {
	if r.shut.Swap(true) {
		return
	}
	for r.inflight.Load() != 0 {
		runtime.Gosched()
	}
}
