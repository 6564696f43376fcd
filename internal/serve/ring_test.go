package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

// TestRingConcurrentExactlyOnce hammers one shard ring with mixed
// single and burst producers against the dispatcher drain loop and
// checks every job is delivered exactly once — no loss, no duplicate —
// across full-queue refusals and the final shutdown drain. Run under
// -race this is the ring's memory-order audit.
func TestRingConcurrentExactlyOnce(t *testing.T) {
	const producers = 8
	const perProd = 2000
	sh := newShard(0, 64)
	tn := stealTenant(1, 1, true)
	total := producers * perProd
	seen := make([]int32, total)

	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() {
		defer consumed.Done()
		buf := make([]*Job, 0, 32)
		for {
			batch, _, ok := sh.drain(32, buf[:0])
			if !ok {
				return
			}
			buf = batch
			for _, j := range batch {
				atomic.AddInt32(&seen[j.req.Key], 1)
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := uint64(p * perProd)
			if p%2 == 0 {
				// Single-push producer: retry refusals (queue full).
				for i := 0; i < perProd; i++ {
					j := testJob(tn, Request{Key: base + uint64(i)})
					for !enqueue(sh, j) {
						runtime.Gosched()
					}
				}
				return
			}
			// Burst producer: enqueueMany admits a prefix; re-offer the rest.
			jobs := make([]*Job, perProd)
			for i := range jobs {
				jobs[i] = testJob(tn, Request{Key: base + uint64(i)})
			}
			for len(jobs) > 0 {
				n := sh.enqueueMany(jobs)
				jobs = jobs[n:]
				if n == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	sh.shutdown()
	consumed.Wait()

	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d delivered %d times, want exactly once", k, n)
		}
	}
}

// TestRingStealStress runs producers, two dispatcher drains, and a
// rebalancer stealing between the shards, all concurrently: every job
// must surface exactly once on exactly one shard.
func TestRingStealStress(t *testing.T) {
	const total = 8000
	src, dst := newShard(0, 64), newShard(1, 64)
	tn := stealTenant(3, 2, true)
	seen := make([]int32, total)

	var consumed sync.WaitGroup
	for _, sh := range []*shard{src, dst} {
		consumed.Add(1)
		go func(sh *shard) {
			defer consumed.Done()
			buf := make([]*Job, 0, 16)
			for {
				batch, _, ok := sh.drain(16, buf[:0])
				if !ok {
					return
				}
				buf = batch
				for _, j := range batch {
					atomic.AddInt32(&seen[j.req.Key], 1)
				}
			}
		}(sh)
	}

	stop := make(chan struct{})
	var stealer sync.WaitGroup
	stealer.Add(1)
	go func() {
		defer stealer.Done()
		var sc stealScratch
		for {
			select {
			case <-stop:
				return
			default:
			}
			stealJobsInto(src, dst, 8, &sc)
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			per := total / 4
			for i := 0; i < per; i++ {
				j := testJob(tn, Request{Key: uint64(p*per + i)})
				for !enqueue(src, j) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	stealer.Wait()
	src.shutdown()
	dst.shutdown()
	consumed.Wait()

	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d delivered %d times, want exactly once", k, n)
		}
	}
}

// TestRingShutdownDuringProduce races shutdown against live producers:
// every job a producer saw admitted must still be delivered (the
// shutdown drain), and refused producers must observe the shut flag —
// no job may be silently dropped between a successful push and drain.
func TestRingShutdownDuringProduce(t *testing.T) {
	sh := newShard(0, 32)
	tn := stealTenant(9, 1, true)
	var admitted, delivered atomic.Int64

	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() {
		defer consumed.Done()
		buf := make([]*Job, 0, 8)
		for {
			batch, _, ok := sh.drain(8, buf[:0])
			if !ok {
				return
			}
			buf = batch
			delivered.Add(int64(len(batch)))
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				j := testJob(tn, Request{Key: uint64(i)})
				if enqueue(sh, j) {
					admitted.Add(1)
				} else if sh.ring.shut.Load() {
					return
				}
				runtime.Gosched()
			}
		}(p)
	}
	time.Sleep(2 * time.Millisecond)
	sh.shutdown()
	wg.Wait()
	consumed.Wait()
	if a, d := admitted.Load(), delivered.Load(); a != d {
		t.Fatalf("admitted %d jobs but delivered %d", a, d)
	}
}

// TestRingSpuriousWakeups pins the wakeup-coalescing contract: a signal
// fires exactly on the empty→non-empty transition, so piling work onto
// an already non-empty ring must not signal again, and a burst admits
// with at most one signal.
func TestRingSpuriousWakeups(t *testing.T) {
	sh := newShard(0, 64)
	tn := stealTenant(5, 1, true)
	job := func(k uint64) *Job { return testJob(tn, Request{Key: k}) }

	if !enqueue(sh, job(0)) {
		t.Fatal("enqueue refused on an empty ring")
	}
	if got := sh.ring.wakes.Load(); got != 1 {
		t.Fatalf("first enqueue sent %d wakeups, want 1", got)
	}
	// Five more onto a non-empty ring: coalesced, zero new signals.
	for k := uint64(1); k <= 5; k++ {
		enqueue(sh, job(k))
	}
	if got := sh.ring.wakes.Load(); got != 1 {
		t.Fatalf("enqueues onto a non-empty ring raised wakeups to %d, want 1", got)
	}
	// A burst onto the non-empty ring: still nothing.
	burst := []*Job{job(6), job(7), job(8)}
	if n := sh.enqueueMany(burst); n != 3 {
		t.Fatalf("enqueueMany admitted %d, want 3", n)
	}
	if got := sh.ring.wakes.Load(); got != 1 {
		t.Fatalf("burst onto a non-empty ring raised wakeups to %d, want 1", got)
	}
	// Drain to empty, then a burst: exactly one more signal for the
	// whole burst.
	buf := make([]*Job, 0, 16)
	if batch, _, ok := sh.drain(16, buf); !ok || len(batch) != 9 {
		t.Fatalf("drain returned %d jobs, want 9", len(batch))
	}
	burst = []*Job{job(9), job(10), job(11), job(12)}
	if n := sh.enqueueMany(burst); n != 4 {
		t.Fatalf("enqueueMany admitted %d, want 4", n)
	}
	if got := sh.ring.wakes.Load(); got != 2 {
		t.Fatalf("burst onto the drained ring brought wakeups to %d, want 2", got)
	}
}

// TestJobRecycleNoFieldLeak asserts the pool-reuse hygiene contract: a
// recycled Job carries nothing — no tenant, no stage, no sink, no flow,
// no trace — into its next generation.
func TestJobRecycleNoFieldLeak(t *testing.T) {
	sh := newShard(0, 8)
	j := sh.newJob()
	tn := stealTenant(1, 1, true)
	j.tenant = tn
	j.req = Request{Key: 42, Payload: "p", Deadline: time.Now(), Priority: 3,
		WorkingSet: []mem.ObjID{1}, WriteSet: []mem.ObjID{2}}
	j.enqueued = time.Now()
	j.stage = tn.solo.stages[0]
	j.sink = callbackSink(func(Result) {})
	j.idx = 7
	j.flow = newFlowState()
	j.ft = &FlowTrace{}

	sh.recycle(j)
	// The pool may hand back any record; the one we recycled must be
	// clean regardless, and we still hold the pointer.
	if j.tenant != nil || j.stage != nil || j.sink != nil || j.idx != 0 || j.flow != nil || j.ft != nil {
		t.Fatalf("recycled job leaked fields: %+v", j)
	}
	if j.req.Key != 0 || j.req.Payload != nil || j.req.WorkingSet != nil ||
		j.req.WriteSet != nil || j.req.Priority != 0 || !j.req.Deadline.IsZero() {
		t.Fatalf("recycled job leaked request fields: %+v", j.req)
	}
	if !j.enqueued.IsZero() {
		t.Fatal("recycled job leaked enqueue timestamp")
	}
}

// TestFlowStateRecycleNoFieldLeak does the same for the pooled flow
// state: dropping the last reference zeroes every field before the
// record re-enters the pool.
func TestFlowStateRecycleNoFieldLeak(t *testing.T) {
	fl := newFlowState()
	fl.p = &Pipeline{}
	fl.key = 9
	fl.deadline = time.Now()
	fl.priority = 2
	fl.enqueued = time.Now()
	fl.done = callbackSink(func(Result) {})
	fl.futs = nil
	fl.router = &stallRouter{}
	fl.ft = &FlowTrace{}
	fl.finished.Store(true)

	fl.unref() // terminal reference: recycles
	if fl.p != nil || fl.key != 0 || fl.priority != 0 || fl.done != nil ||
		fl.futs != nil || fl.router != nil || fl.ft != nil {
		t.Fatalf("recycled flow state leaked fields: %+v", fl)
	}
	if !fl.deadline.IsZero() || !fl.enqueued.IsZero() {
		t.Fatal("recycled flow state leaked timestamps")
	}
	if fl.finished.Load() {
		t.Fatal("recycled flow state leaked finished flag")
	}
	if fl.refs.Load() != 0 {
		t.Fatalf("recycled flow state holds %d refs", fl.refs.Load())
	}
}

// TestRecycledTicketsResolveExactlyOnce pushes a sustained load through
// a real server — enough traffic to cycle every pooled Job many times —
// and checks each ticket resolves exactly once with its own request's
// value. A recycled Job resolving a stale ticket would either mismatch
// a value or double-resolve a cell (which panics).
func TestRecycledTicketsResolveExactlyOnce(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4, QueueDepth: 256, Batch: 8, InflightBatches: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "echo",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	const width = 64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := w*rounds + i
				tk, err := tn.Submit(Request{Key: uint64(w), Payload: want})
				if err != nil {
					continue // overload refusal is fine; wrong value is not
				}
				r := tk.Wait()
				if r.Status != StatusOK {
					t.Errorf("request (%d,%d) finished %v: %v", w, i, r.Status, r.Err)
					return
				}
				if got := r.Value.(int); got != want {
					t.Errorf("request (%d,%d) got value %d, want %d (stale ticket?)", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
