package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mem"
)

// countingTenant registers a tenant whose handler counts each request
// it runs by Key in seen, so ring tests consume through the real batch
// SGTs and can check every job ran exactly once.
func countingTenant(t *testing.T, s *Server, seen []int32) *Tenant {
	t.Helper()
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "count",
		Handler: func(_ *Ctx, req Request) (any, error) {
			atomic.AddInt32(&seen[req.Key], 1)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// keysOnShard returns n distinct keys that route tn's requests to shard
// id of a server with shards shards.
func keysOnShard(tn *Tenant, id, shards, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if shardIndex(tn.hash, k, shards) == id {
			keys = append(keys, k)
		}
	}
	return keys
}

func checkExactlyOnce(t *testing.T, seen []int32, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		if n := atomic.LoadInt32(&seen[k]); n != 1 {
			t.Fatalf("key %d delivered %d times, want exactly once", k, n)
		}
	}
}

// TestRingConcurrentExactlyOnce hammers one shard ring with concurrent
// producers against its batch SGTs, each producer retrying every
// request the full queue refuses, and checks every job is delivered
// exactly once — no loss, no duplicate — across full-queue refusals and
// the drain at Close. Run under -race this is the ring's memory-order
// audit.
func TestRingConcurrentExactlyOnce(t *testing.T) {
	const producers = 8
	const perProd = 2000
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 64, Batch: 32})
	total := producers * perProd
	seen := make([]int32, total)
	tn := countingTenant(t, s, seen)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := uint64(p * perProd)
			for i := 0; i < perProd; i++ {
				for tn.SubmitFunc(Request{Key: base + uint64(i)}, func(Result) {}) != nil {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	s.Close()
	keys := make([]uint64, total)
	for k := range keys {
		keys[k] = uint64(k)
	}
	checkExactlyOnce(t, seen, keys)
}

// TestRingStealStress runs producers onto one shard, the batch SGTs of
// both shards, and a rebalancer stealing between them, all
// concurrently: every job must run exactly once on exactly one shard.
func TestRingStealStress(t *testing.T) {
	const total = 8000
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, QueueDepth: 64, Batch: 16})
	var keys []uint64
	seen := make([]int32, 4*total)
	tn := countingTenant(t, s, seen)
	keys = keysOnShard(tn, 0, 2, total)
	src, dst := s.shards[0], s.shards[1]

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
		go func(mine []uint64) {
			defer wg.Done()
			for _, k := range mine {
				for tn.SubmitFunc(Request{Key: k}, func(Result) {}) != nil {
					runtime.Gosched()
				}
			}
		}(keys[p*total/4 : (p+1)*total/4])
	}
	wg.Wait()
	close(stop)
	stealer.Wait()
	s.Close()
	checkExactlyOnce(t, seen, keys)
}

// TestRingShutdownDuringProduce races Close against live producers:
// every job a producer saw admitted must still run (Close waits out the
// batch SGTs), and refused producers must observe ErrClosed — no job
// may be silently dropped between a successful push and its batch.
func TestRingShutdownDuringProduce(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 32, Batch: 8})
	var admitted, delivered atomic.Int64
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(*Ctx, Request) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				err := tn.SubmitFunc(Request{Key: uint64(i)}, func(Result) { delivered.Add(1) })
				if err == nil {
					admitted.Add(1)
				} else if errors.Is(err, ErrClosed) {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	if a, d := admitted.Load(), delivered.Load(); a != d {
		t.Fatalf("admitted %d jobs but delivered %d", a, d)
	}
}

// TestRingSpuriousWakeups pins the spawn rule: a push onto an idle
// shard starts exactly one batch SGT; a push onto a shard whose batch
// SGTs are all executing starts another up to InflightBatches and none
// past it; and what queued meanwhile costs one successor when they
// retire. Counted through core.sgt.spawn, which nothing else in the
// system bumps here.
func TestRingSpuriousWakeups(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 64, Batch: 16, InflightBatches: 2})
	defer s.Close()
	started, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	var ran atomic.Int64
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, req Request) (any, error) {
			if req.Payload == "block" {
				started <- struct{}{}
				<-release
			}
			ran.Add(1)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spawns := sys.Mon.Counter("core.sgt.spawn")
	base := spawns.Value()
	want := func(n int64, what string) {
		t.Helper()
		if got := spawns.Value() - base; got != n {
			t.Fatalf("%s: %d batch SGT spawns in all, want %d", what, got, n)
		}
	}
	submit := func(k uint64, payload any) {
		t.Helper()
		if err := tn.SubmitFunc(Request{Key: k, Payload: payload}, func(Result) {}); err != nil {
			t.Fatal(err)
		}
	}
	submit(0, "block")
	want(1, "a push onto an idle shard")
	<-started
	submit(1, "block") // the only batch SGT is executing: one more
	want(2, "a push onto a shard whose one batch SGT executes")
	<-started
	// Both batch SGTs are executing: InflightBatches is reached.
	for k := uint64(2); k < 7; k++ {
		submit(k, nil)
	}
	want(2, "pushes onto a shard at InflightBatches")
	unblock()
	waitFor(t, "every job to run", func() bool { return ran.Load() == 7 })
	waitFor(t, "the shard to go idle", func() bool { return s.shards[0].sgts.Load() == 0 })
	want(3, "the five jobs queued at InflightBatches")
	submit(7, nil)
	want(4, "a push onto the idle shard again")
}

// TestRingReservePartialGrant pins the group reservation the
// rebalancer's steal makes on its destination ring: reserve grants what
// fits, at consecutive positions, and nothing when full, also across
// the wrap of the cell array; a push takes one slot and refuses at the
// limit, which is exact although the cell array rounds up.
func TestRingReservePartialGrant(t *testing.T) {
	var r jobRing
	r.init(6) // 8 cells, limit 6
	j := testJob(stealTenant(1, 1, true), Request{})
	if !r.push(j) {
		t.Fatal("push into an empty ring refused")
	}
	for _, c := range []struct {
		want, n int
		pos     uint64
	}{{3, 3, 1}, {4, 2, 4}, {1, 0, 0}} {
		if n, pos := r.reserve(c.want); n != c.n || pos != c.pos {
			t.Fatalf("reserve(%d) = %d at %d, want %d at %d", c.want, n, pos, c.n, c.pos)
		}
	}
	if r.push(j) {
		t.Fatal("push into a full ring accepted")
	}
	for pos := uint64(1); pos < 6; pos++ {
		r.publish(pos, j)
	}
	r.consMu.Lock()
	buf, depth := r.popMany(4, nil)
	r.consMu.Unlock()
	if len(buf) != 4 || depth != 6 {
		t.Fatalf("popped %d of depth %d, want 4 of 6", len(buf), depth)
	}
	if n, pos := r.reserve(8); n != 4 || pos != 6 {
		t.Fatalf("reserve(8) after the pop = %d at %d, want 4 at 6", n, pos)
	}
	if p := r.pending(); p != 6 {
		t.Fatalf("pending %d, want 6", p)
	}
}

// TestStrandProducerRacesLastBatchExit races closed-loop producers
// against the exit of their shard's only batch SGT: with Batch and
// InflightBatches at 1, almost every submit lands while the SGT that ran
// the previous request is retiring. A job left with no batch SGT never
// resolves, so each wait is bounded.
func TestStrandProducerRacesLastBatchExit(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 64, Batch: 1, InflightBatches: 1})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(*Ctx, Request) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			done := make(chan struct{}, 1)
			for i := 0; i < 200; i++ {
				if err := tn.SubmitFunc(Request{Key: uint64(p)}, func(Result) { done <- struct{}{} }); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Errorf("producer %d: request %d stranded with no batch SGT", p, i)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestStrandStealLeavesJobsOnIdleSource pins the steal's half of the
// hand-off. A source batch SGT that exits while stealJobsInto compacts
// the source can read the old head and then a freed slot, and retire
// without a successor; the steal must then start one for the jobs it
// left behind. The race is set up exactly: the source holds queued jobs
// with no batch SGT active — the state that SGT leaves — and a steal
// that moves one of them must get the rest running. A concurrent run of
// the same race follows.
func TestStrandStealLeavesJobsOnIdleSource(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, QueueDepth: 64, Batch: 4, InflightBatches: 1})
	defer s.Close()
	seen := make([]int32, 1<<12)
	tn := countingTenant(t, s, seen)
	src, dst := s.shards[0], s.shards[1]
	keys := keysOnShard(tn, 0, 2, 512)

	src.sgts.Store(freshSGT + 1) // hold: producers see a fresh SGT and start nothing
	queued := []uint64{keys[0], keys[1], keys[1], keys[2]}
	var ran atomic.Int64
	for _, k := range queued {
		if err := tn.SubmitFunc(Request{Key: k}, func(Result) { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	src.sgts.Store(0) // it retired having drained nothing and seen no work
	// Singletons keys[0] and keys[2] are stealable; want 1 moves the
	// newest and leaves three jobs on the idle source.
	if moved := stealJobsInto(src, dst, 1, &stealScratch{}); moved != 1 {
		t.Fatalf("moved %d, want 1", moved)
	}
	waitFor(t, "the jobs the steal left on the source to run", func() bool { return ran.Load() == int64(len(queued)) })

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
			stealJobsInto(src, dst, 2, &sc)
		}
	}()
	defer func() { close(stop); stealer.Wait() }()
	// Rounds of six submits onto the source: a Batch of 4 can leave work
	// behind, so a round may retire a batch SGT with work queued while
	// the stealer compacts the same ring.
	done := make(chan struct{}, 6)
	for r := 3; r+6 <= len(keys); r += 6 {
		for i := 0; i < 6; i++ {
			if err := tn.SubmitFunc(Request{Key: keys[r+i]}, func(Result) { done <- struct{}{} }); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("round at key %d: a job stranded with no batch SGT", keys[r])
			}
		}
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
	j.enqueued, j.deadline = clock.Now(), clock.Now()
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
	if j.enqueued != 0 || j.deadline != 0 {
		t.Fatal("recycled job leaked its timestamps")
	}
}

// TestFlowStateRecycleNoFieldLeak does the same for the pooled flow
// state: dropping the last reference zeroes every field before the
// record re-enters the pool — for a state filled field by field, for
// states a flow left behind after running through same-shard
// continuations (a scalar hop; an inline fan; a routed fan-out and its
// join), and for a flow a router took and finished through its handle.
func TestFlowStateRecycleNoFieldLeak(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *flowState
	}{
		{"fields", func(*testing.T) *flowState {
			fl := newFlowState()
			fl.p = &Pipeline{}
			fl.key = 9
			fl.deadline = clock.Now()
			fl.priority = 2
			fl.enqueued = clock.Now()
			fl.done = callbackSink(func(Result) {})
			fl.fan = &pipeStage{}
			fl.pending.Store(3)
			fl.elems = append(fl.elems[:0], Result{Status: StatusOK, Value: "v"}, Result{Err: errors.New("e")})
			fl.router = &stallRouter{}
			fl.ft = &FlowTrace{}
			fl.state.Store(fl.state.Load() | 1) // finished
			fl.unref()                          // terminal reference: recycles
			return fl
		}},
		{"same-shard-hop", func(t *testing.T) *flowState { return continuedFlow(t, false, nil) }},
		{"same-shard-fan", func(t *testing.T) *flowState { return continuedFlow(t, true, nil) }},
		{"same-shard-routed-fan", func(t *testing.T) *flowState {
			return continuedFlow(t, true, func(any) uint64 { return 1 })
		}},
		{"remote-hop", remoteHopFlow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fl := tc.run(t)
			if fl.p != nil || fl.key != 0 || fl.priority != 0 || fl.done != nil ||
				fl.fan != nil || fl.router != nil || fl.ft != nil {
				t.Fatalf("recycled flow state leaked fields: %+v", fl)
			}
			// The join buffer keeps its capacity for the next fan-out but
			// holds no result of this one.
			if len(fl.elems) != 0 || fl.pending.Load() != 0 {
				t.Fatalf("recycled flow state leaked its join: %d elems, %d pending", len(fl.elems), fl.pending.Load())
			}
			for i, r := range fl.elems[:cap(fl.elems)] {
				if r != (Result{}) {
					t.Fatalf("recycled join buffer slot %d leaked %+v", i, r)
				}
			}
			if fl.deadline != 0 || fl.enqueued != 0 {
				t.Fatal("recycled flow state leaked timestamps")
			}
			if fl.state.Load()&1 != 0 {
				t.Fatal("recycled flow state leaked finished flag")
			}
			if fl.refs.Load() != 0 {
				t.Fatalf("recycled flow state holds %d refs", fl.refs.Load())
			}
		})
	}
}

// continuedFlow runs one flow of a three-stage pipeline a, b, c — b a
// Map over four elements when fan, routed by key when key is set — by
// hand through one batch record of a one-shard server, the way a batch
// SGT runs it: stage a's result is chained with the record, and every
// job in the record executes in order, including the continuations
// chain, the fan-out and the join append. The flow carries a router that
// declines every hop and a trace. It returns the flow state, which its
// terminal has recycled.
func continuedFlow(t *testing.T, fan bool, key func(any) uint64) *flowState {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, Observe: ObserveConfig{SampleRate: 1, RingSize: 8}})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{Name: "t", Handler: func(*Ctx, Request) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	echo := func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }
	p, err := tn.NewPipeline("p", Stage{Name: "a", Handler: echo}, Stage{Name: "b", Map: fan, Key: key, Handler: echo},
		Stage{Name: "c", Handler: echo})
	if err != nil {
		t.Fatal(err)
	}
	var in any = "x"
	want := 2 // b (one inline-fan job when fan), c
	if fan {
		in = []any{"w", "x", "y", "z"}
	}
	if key != nil {
		want = 5 // an element job each, c
	}
	var final Result
	fl := newFlowState()
	fl.p, fl.key, fl.priority, fl.enqueued, fl.deadline = p, 1, 1, clock.Now(), clock.Never
	fl.done = callbackSink(func(r Result) { final = r })
	fl.router = &stallRouter{at: -1}
	fl.ft = s.obs.sample(tn, p, 1)
	sh := s.shards[0]
	br := <-sh.runs
	br.limit, br.now = s.cfg.Batch, clock.Now()
	p.chain(fl, p.stages[0], Result{Status: StatusOK, Value: in}, br)
	for i := 0; i < len(br.jobs); i++ {
		s.execute(br, br.jobs[i])
	}
	if len(br.jobs) != want || final.Status != StatusOK {
		t.Fatalf("%d jobs continued, flow = %+v; want %d, OK", len(br.jobs), final, want)
	}
	clear(br.jobs)
	br.jobs, br.limit, br.now = br.jobs[:0], 0, 0
	sh.runs <- br
	return fl
}

// remoteHopFlow runs one flow of a three-stage pipeline whose router
// takes it at the a -> b hop, then finishes it through the router's
// handle once stage a's job has let go: that Finish drops the last
// reference, so the record recycles at once, with a bumped generation.
// A second Finish on the same handle must then be a no-op. It returns
// the flow state.
func remoteHopFlow(t *testing.T) *flowState {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, Observe: ObserveConfig{SampleRate: 1, RingSize: 8}})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{Name: "t", Handler: func(*Ctx, Request) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("p", echoStage("a"), echoStage("b"), echoStage("c"))
	if err != nil {
		t.Fatal(err)
	}
	router := &stallRouter{at: 1}
	var ended atomic.Int32
	if err := tn.SubmitFlowAt(p, 0, Request{Key: 1, Payload: "x", Priority: 1}, router,
		func(Result) { ended.Add(1) }); err != nil {
		t.Fatal(err)
	}
	h := router.taken(t, 1)[0]
	waitFor(t, "stage a's job to let go of the flow", func() bool { return h.fl.refs.Load() == 1 })
	if h.fl.state.Load() != h.gen<<1 {
		t.Fatalf("handed-off flow state %#x, want generation %d unfinished", h.fl.state.Load(), h.gen)
	}
	h.Finish(Result{Status: StatusOK, Value: "remote"})
	if got := h.fl.state.Load(); got != (h.gen+1)<<1 {
		t.Fatalf("finished flow state %#x, want generation %d unfinished (recycled)", got, h.gen+1)
	}
	h.Finish(Result{Status: StatusOK})
	if n := ended.Load(); n != 1 {
		t.Fatalf("flow ended %d times, want 1", n)
	}
	if got := h.fl.state.Load(); got != (h.gen+1)<<1 {
		t.Fatalf("a stale Finish changed the recycled state to %#x", got)
	}
	return h.fl
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
