package serve

// This file is the shard queue's bounded MPSC ring — the replacement
// for the mutex+condvar slice FIFO the admission hot path used to pay
// on every submit. Producers (submitters, and the rebalancer inserting
// stolen jobs) are lock-free: admission is one CAS on the tail plus one
// slot publish. The single consumer (the shard's dispatcher) and the
// rebalancer's removal side serialize on consMu, which never sits on a
// producer's path.
//
// The slot protocol is the classic bounded-MPMC sequence scheme
// restricted to one consumer: slot i carries a sequence number that
// equals the position p it is ready to accept (producer may write),
// p+1 once the job at p is published (consumer may read), and p+size
// after consumption (free for position p+size). Producers never read
// sequences — the head bound on reservation already guarantees their
// slot is free — so a push is exactly one CAS, one pointer store, and
// one sequence store.
//
// Capacity is exact: the ring refuses at `limit` (Config.QueueDepth)
// even though the cell array rounds up to a power of two, preserving
// the old queue's refusal semantics bit-for-bit.
//
// Wakeups coalesce: a producer signals the dispatcher only on the
// empty→non-empty transition (detected exactly — see reserve), through
// a one-slot channel, so a traffic burst costs one wakeup, not one per
// request. The dispatcher parks only when head == tail; a published-gap
// state (head != tail but the head slot not yet published, i.e. a
// straggling producer between CAS and publish) is spun through, because
// that producer's reservation saw a non-empty ring and will not signal.
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
	// to zero before its final signal, so a parked consumer can never be
	// stranded by a producer that refused (and thus never signalled).
	inflight atomic.Int64
	shut     atomic.Bool

	wake  chan struct{} // one-slot coalesced dispatcher wakeup
	wakes atomic.Int64  // total signals sent (spurious-wakeup regression signal)

	// consMu serializes the consumer side: the dispatcher's drain and the
	// rebalancer's steal-from-source. Producers never take it.
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
	r.wake = make(chan struct{}, 1)
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
// returning how many it got (0 when full) and whether this reservation
// is the empty→non-empty transition. The emptiness test reads head
// after the CAS: a consumer that drained to empty and parked must have
// stored head == pos before parking, so the winning producer sees it
// and signals — reading head before the CAS could miss that store and
// strand the consumer.
func (r *jobRing) reserve(want int) (n int, pos uint64, wasEmpty bool) {
	for {
		h := r.head.Load()
		t := r.tail.Load()
		free := int64(r.limit) - int64(t-h)
		if free <= 0 {
			return 0, 0, false
		}
		n = want
		if int64(n) > free {
			n = int(free)
		}
		if r.tail.CompareAndSwap(t, t+uint64(n)) {
			return n, t, r.head.Load() == t
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

// pushMany admits the longest prefix of jobs that fits and returns its
// length (0 when shut or full, and the caller sheds) — one reservation,
// one signal at most. A single submit is a group of one.
func (r *jobRing) pushMany(jobs []*Job) int {
	if len(jobs) == 0 || !r.begin() {
		return 0
	}
	n, pos, wasEmpty := r.reserve(len(jobs))
	for i := 0; i < n; i++ {
		r.publish(pos+uint64(i), jobs[i])
	}
	r.end()
	if n > 0 && wasEmpty {
		r.signal()
	}
	return n
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

// signal wakes the dispatcher; a full one-slot channel means a wakeup
// is already pending and this one coalesces into it.
func (r *jobRing) signal() {
	r.wakes.Add(1)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// park blocks the consumer until the next signal. Only call after
// observing head == tail; a gap state must be spun through instead
// (its producer will not signal).
func (r *jobRing) park() { <-r.wake }

// shutdown closes the ring to producers, waits out the ones already
// inside begin/end, then signals once: after the quiesce no refused
// producer can owe the consumer a wakeup, so this final signal is
// guaranteed to reach a parked dispatcher, which drains the tail and
// exits.
func (r *jobRing) shutdown() {
	if r.shut.Swap(true) {
		return
	}
	for r.inflight.Load() != 0 {
		runtime.Gosched()
	}
	r.signal()
}
