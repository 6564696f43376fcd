package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/litlx"
	"repro/internal/stats"
)

func newTestRNG() *stats.RNG { return stats.NewRNG(7) }

func newTestSystem(t *testing.T) *litlx.System {
	t.Helper()
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSubmitExecutes(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()

	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "double",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key * 2, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*Ticket, 100)
	for i := range tickets {
		tk, err := tn.Submit(Request{Key: uint64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Status != StatusOK {
			t.Fatalf("job %d: status %v", i, res.Status)
		}
		if got := res.Value.(uint64); got != uint64(i)*2 {
			t.Fatalf("job %d: value %d, want %d", i, got, i*2)
		}
	}
	st := s.Stats()
	if st.Accepted != 100 || st.Done != 100 || st.Rejected != 0 || st.Shed != 0 {
		t.Errorf("stats = %+v, want 100 accepted+done", st)
	}
	if st.Batches == 0 || st.Batches > 100 {
		t.Errorf("batches = %d, want in (0, 100]", st.Batches)
	}
}

func TestTenantLookup(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "square",
		Handler: func(ctx *Ctx, req Request) (any, error) { return req.Key * req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Tenant("square"); !ok || got != tn {
		t.Fatalf("Tenant lookup = (%v, %v), want registered handle", got, ok)
	}
	if _, ok := s.Tenant("nobody"); ok {
		t.Error("Tenant lookup of unknown name should report !ok")
	}
}

func TestHandlerErrorFailsResult(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1})
	defer s.Close()

	errTeapot := errors.New("teapot")
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "erring",
		Handler: func(_ *Ctx, req Request) (any, error) {
			if req.Payload == "fail" {
				return nil, errTeapot
			}
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.Submit(Request{Key: 1, Payload: "fail"})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
	if !errors.Is(res.Err, errTeapot) {
		t.Fatalf("err = %v, want teapot", res.Err)
	}
	if res.Value != nil {
		t.Errorf("failed result carries value %v", res.Value)
	}
	// The error path must not poison subsequent requests.
	tk, err = tn.Submit(Request{Key: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || res.Err != nil {
		t.Fatalf("follow-up = %+v, want ok", res)
	}
	if st := s.Stats(); st.Failed != 1 || st.Done != 2 {
		t.Errorf("stats = %+v, want failed=1 done=2", st)
	}
}

func TestCtxExposesExecutionContext(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()

	deadline := time.Now().Add(time.Minute)
	type seen struct {
		tenant string
		shard  int
		dl     time.Time
		sgtOK  bool
	}
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "introspect",
		Handler: func(ctx *Ctx, req Request) (any, error) {
			return seen{tenant: ctx.Tenant(), shard: ctx.Shard(), dl: ctx.Deadline(), sgtOK: ctx.SGT() != nil}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.Submit(Request{Key: 3, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Status != StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	got := res.Value.(seen)
	wantShard := shardIndex(fnv64a("introspect"), 3, 4)
	if got.tenant != "introspect" || got.shard != wantShard || !got.dl.Equal(deadline) || !got.sgtOK {
		t.Errorf("ctx = %+v, want tenant=introspect shard=%d deadline=%v sgt non-nil", got, wantShard, deadline)
	}
}

func TestMiddlewareChainOrder(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()

	var mu sync.Mutex
	var order []string
	record := func(tag string) Middleware {
		return func(next Handler) Handler {
			return func(ctx *Ctx, req Request) (any, error) {
				mu.Lock()
				order = append(order, tag)
				mu.Unlock()
				return next(ctx, req)
			}
		}
	}
	s := New(sys, Config{Shards: 1, Middleware: []Middleware{record("server1"), record("server2")}})
	defer s.Close()

	tn, err := s.RegisterTenant(TenantConfig{
		Name:       "chained",
		Middleware: []Middleware{record("tenant")},
		Handler: func(_ *Ctx, req Request) (any, error) {
			mu.Lock()
			order = append(order, "handler")
			mu.Unlock()
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.Submit(Request{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	want := []string{"server1", "server2", "tenant", "handler"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMiddlewareShortCircuit(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1})
	defer s.Close()

	errDenied := errors.New("denied by policy")
	var handlerRan atomic.Int64
	deny := func(next Handler) Handler {
		return func(ctx *Ctx, req Request) (any, error) {
			if req.Payload == "deny" {
				return nil, errDenied
			}
			return next(ctx, req)
		}
	}
	tn, err := s.RegisterTenant(TenantConfig{
		Name:       "gated",
		Middleware: []Middleware{deny},
		Handler: func(_ *Ctx, req Request) (any, error) {
			handlerRan.Add(1)
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.Submit(Request{Key: 1, Payload: "deny"})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusFailed || !errors.Is(res.Err, errDenied) {
		t.Fatalf("denied result = %+v", res)
	}
	if handlerRan.Load() != 0 {
		t.Error("handler ran despite middleware short-circuit")
	}
	tk, err = tn.Submit(Request{Key: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || handlerRan.Load() != 1 {
		t.Fatalf("allowed request = %+v, handler ran %d times", res, handlerRan.Load())
	}
}

func TestBackpressureRejects(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 2, Batch: 1, InflightBatches: 1})

	release := make(chan struct{})
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "slow",
		Handler: func(_ *Ctx, _ Request) (any, error) {
			<-release
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Flood an open-loop burst: with one in-flight batch of one job and
	// a queue of two, admission must start rejecting rather than queue
	// unboundedly.
	var accepted, rejected int
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		err := tn.SubmitFunc(Request{Key: uint64(i)}, func(Result) { wg.Done() })
		if errors.Is(err, ErrOverload) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		accepted++
		time.Sleep(time.Millisecond) // let the batch SGTs drain between offers
	}
	if rejected == 0 {
		t.Fatal("overloaded shard never rejected")
	}
	if accepted > 2+1+1 {
		// queue depth + in-flight batch + the drain in progress
		t.Errorf("accepted %d jobs; bounded queue should have capped near 4", accepted)
	}
	close(release)
	wg.Wait()
	s.Close()
	st := s.Stats()
	if st.Rejected != int64(rejected) || st.Done != int64(accepted) {
		t.Errorf("stats = %+v, want rejected=%d done=%d", st, rejected, accepted)
	}
}

func TestSubmitManyMixedOutcomes(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 2, Batch: 1, InflightBatches: 1})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "bursty",
		Handler: func(_ *Ctx, req Request) (any, error) {
			if req.Payload == "block" {
				started <- struct{}{}
				<-release
			}
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single in-flight batch so the queue (depth 2) is the
	// only capacity left, then land one burst of six: exactly two fit.
	if _, err := tn.Submit(Request{Key: 100, Payload: "block"}); err != nil {
		t.Fatal(err)
	}
	<-started

	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Key: uint64(i)}
	}
	tickets := tn.SubmitMany(reqs)
	if len(tickets) != len(reqs) {
		t.Fatalf("got %d tickets for %d requests", len(tickets), len(reqs))
	}
	// The rejected suffix resolves immediately, before the blocker is
	// released: earlier-indexed requests win the queue slots.
	for i := 2; i < 6; i++ {
		res := tickets[i].Wait()
		if res.Status != StatusRejected {
			t.Fatalf("ticket %d: status %v, want rejected", i, res.Status)
		}
		if !errors.Is(res.Err, ErrOverload) {
			t.Fatalf("ticket %d: err %v, want ErrOverload", i, res.Err)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		res := tickets[i].Wait()
		if res.Status != StatusOK || res.Value.(uint64) != uint64(i) {
			t.Fatalf("ticket %d: %+v, want ok value %d", i, res, i)
		}
	}
	st := s.Stats()
	if st.Accepted != 3 || st.Rejected != 4 {
		t.Errorf("stats = %+v, want accepted=3 rejected=4", st)
	}
}

func TestSubmitManySpreadsShards(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 8})
	defer s.Close()

	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "spread",
		Handler: func(ctx *Ctx, req Request) (any, error) { return req.Key + uint64(ctx.Shard())<<32, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Key: uint64(i)}
	}
	tickets := tn.SubmitMany(reqs)
	shardsSeen := make(map[int]bool)
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Status != StatusOK {
			t.Fatalf("req %d: status %v", i, res.Status)
		}
		v := res.Value.(uint64)
		if v&0xFFFFFFFF != uint64(i) {
			t.Fatalf("req %d: key echoed %d", i, v&0xFFFFFFFF)
		}
		gotShard := int(v >> 32)
		if want := shardIndex(fnv64a("spread"), uint64(i), 8); gotShard != want {
			t.Fatalf("req %d ran on shard %d, want %d", i, gotShard, want)
		}
		shardsSeen[gotShard] = true
	}
	if len(shardsSeen) < 2 {
		t.Errorf("burst of %d keys landed on %d shards; grouping should spread", n, len(shardsSeen))
	}
}

// TestIdleServerLeavesRuntimeQuiescent: an open server with nothing in
// flight holds no thread — a shard's batch SGTs exist only while it has
// work — so the system's Wait returns, and the server still serves
// afterwards.
func TestIdleServerLeavesRuntimeQuiescent(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "echo",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(v int) {
		t.Helper()
		tk, err := tn.Submit(Request{Key: uint64(v), Payload: v})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Status != StatusOK || r.Value != v {
			t.Fatalf("request %d: %+v", v, r)
		}
	}
	for round := 0; round < 2; round++ {
		submit(round)
		quiet := make(chan struct{})
		go func() { sys.Wait(); close(quiet) }()
		select {
		case <-quiet:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the system's Wait blocked on an idle open server", round)
		}
	}
}

func TestSubmitAfterCloseErrClosed(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := tn.Submit(Request{Key: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := tn.SubmitFunc(Request{Key: 1}, func(Result) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitFunc after Close = %v, want ErrClosed", err)
	}
	if _, err := tn.SubmitFlow(tn.Solo(), Request{Key: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitFlow after Close = %v, want ErrClosed", err)
	}
	for i, tk := range tn.SubmitMany([]Request{{Key: 1}, {Key: 2}}) {
		res := tk.Wait()
		if res.Status != StatusRejected || !errors.Is(res.Err, ErrClosed) {
			t.Errorf("SubmitMany[%d] after Close = %+v, want rejected/ErrClosed", i, res)
		}
	}
}

func TestDuplicateRegistrationLeavesNoTrace(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()

	h := func(_ *Ctx, req Request) (any, error) { return req.Key, nil }
	first, err := s.RegisterTenant(TenantConfig{Name: "dup", Handler: h, CodeSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	before := len(sys.Mon.Snapshot().Counters)

	// A rejected registration must not install any monitor instruments,
	// nor replace the original's code image.
	if _, err := s.RegisterTenant(TenantConfig{Name: "dup", Handler: h, CodeSize: 3 << 20}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	if after := len(sys.Mon.Snapshot().Counters); after != before {
		t.Errorf("duplicate registration changed counter table: %d -> %d", before, after)
	}
	if got, _ := s.Tenant("dup"); got != first || got.TransferCycles() != transferCycles(1<<20) {
		t.Error("duplicate registration replaced the original handle")
	}
}

func TestConcurrentDuplicateRegistration(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()

	// Racing registrations of one name with distinct code sizes: exactly
	// one wins, and its handle is the one registered.
	const racers = 8
	h := func(_ *Ctx, req Request) (any, error) { return req.Key, nil }
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RegisterTenant(TenantConfig{Name: "race", Handler: h, CodeSize: (i + 1) << 20}); err == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d registrations of the same name succeeded, want exactly 1", wins.Load())
	}
	if got, ok := s.Tenant("race"); !ok || got.TransferCycles() == 0 {
		t.Errorf("winning registration not installed: %v", got)
	}
}

func TestDegenerateConfigMinimalEverything(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	// Every knob at its floor: one shard, batches of one, a queue of
	// one, one in-flight batch. Everything still completes; overflow
	// rejects rather than deadlocks.
	s := New(sys, Config{Shards: 1, QueueDepth: 1, Batch: 1, InflightBatches: 1})
	defer s.Close()

	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "tiny",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key * 3, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	done := 0
	for i := uint64(0); i < n; {
		tk, err := tn.Submit(Request{Key: i})
		if errors.Is(err, ErrOverload) {
			time.Sleep(100 * time.Microsecond) // queue of one fills; retry
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res := tk.Wait(); res.Status != StatusOK || res.Value.(uint64) != i*3 {
			t.Fatalf("job %d: %+v", i, res)
		}
		done++
		i++
	}
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if st := s.Stats(); st.Done != n {
		t.Fatalf("stats done = %d, want %d", st.Done, n)
	}
	// A burst through the same degenerate config: the idle queue has
	// exactly one slot, so one accept and the rest reject — and nothing
	// wedges.
	tickets := tn.SubmitMany([]Request{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}})
	if res := tickets[0].Wait(); res.Status != StatusOK || res.Value.(uint64) != 3 {
		t.Fatalf("burst head: %+v, want ok value 3", res)
	}
	for i := 1; i < 4; i++ {
		if res := tickets[i].Wait(); res.Status != StatusRejected || !errors.Is(res.Err, ErrOverload) {
			t.Fatalf("burst[%d]: %+v, want rejected/ErrOverload", i, res)
		}
	}
}

func TestPanicInMultiJobBatch(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 64, Batch: 8, InflightBatches: 1})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "mixed",
		Handler: func(_ *Ctx, req Request) (any, error) {
			switch req.Payload {
			case "block":
				started <- struct{}{}
				<-release
			case "panic":
				panic("kaboom in batch")
			}
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the single in-flight slot so the next burst drains as ONE
	// multi-job batch (the shard's one batch SGT is executing, so none
	// starts mid-burst; Batch=8 >= 6 keeps it whole).
	if _, err := tn.Submit(Request{Key: 99, Payload: "block"}); err != nil {
		t.Fatal(err)
	}
	<-started

	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Key: uint64(i)}
	}
	reqs[2].Payload = "panic" // a sibling mid-batch blows up

	results := make([]Result, 6)
	var wg sync.WaitGroup
	wg.Add(6)
	tn.SubmitManyFunc(reqs, func(i int, r Result) {
		results[i] = r
		wg.Done()
	})
	close(release)
	wg.Wait()
	s.Close() // flush everything before inspecting

	for i, res := range results {
		if i == 2 {
			if res.Status != StatusFailed || res.Err == nil {
				t.Errorf("panicking job: %+v, want failed with err", res)
			}
			continue
		}
		if res.Status != StatusOK || res.Value.(uint64) != uint64(i) {
			t.Errorf("sibling %d: %+v, want ok (siblings must survive a panicking batchmate)", i, res)
		}
	}
	if st := s.Stats(); st.Failed != 1 || st.Done != 7 {
		t.Errorf("stats = %+v, want failed=1 done=7", st)
	}
}

func TestDeadlineShed(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1})
	defer s.Close()

	var ran atomic.Int64
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, _ Request) (any, error) {
			ran.Add(1)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deadline already expired at admission: the batch SGT must shed
	// instead of running the handler.
	expired := time.Now().Add(-time.Millisecond)
	tk, err := tn.Submit(Request{Key: 1, Deadline: expired})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusShed {
		t.Fatalf("status = %v, want shed", res.Status)
	}
	if ran.Load() != 0 {
		t.Error("handler ran for an expired job")
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}
	// A live deadline must still execute.
	tk, err = tn.Submit(Request{Key: 2, Deadline: time.Now().Add(5 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK {
		t.Fatalf("status = %v, want ok", res.Status)
	}
}

func TestDefaultDeadlineApplied(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, DefaultDeadline: -time.Millisecond})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, _ Request) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A negative default deadline expires every job instantly — it must
	// be applied to deadline-less submissions, on both submit paths.
	tk, err := tn.Submit(Request{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusShed {
		t.Fatalf("status = %v, want shed via default deadline", res.Status)
	}
	for _, tk := range tn.SubmitMany([]Request{{Key: 2}}) {
		if res := tk.Wait(); res.Status != StatusShed {
			t.Fatalf("SubmitMany status = %v, want shed via default deadline", res.Status)
		}
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1})
	defer s.Close()
	boom, err := s.RegisterTenant(TenantConfig{
		Name:    "boom",
		Handler: func(_ *Ctx, _ Request) (any, error) { panic("boom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := s.RegisterTenant(TenantConfig{
		Name:    "fine",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := boom.Submit(Request{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusFailed || res.Err == nil {
		t.Fatalf("result = %+v, want failed with recovered panic in Err", res)
	}
	// The server (and the batch SGT's siblings) must survive.
	tk, err = fine.Submit(Request{Key: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || res.Value.(uint64) != 7 {
		t.Fatalf("follow-up job broken: %+v", res)
	}
}

func TestColdVsWarmFirstRequest(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()

	handler := func(_ *Ctx, req Request) (any, error) { return req.Key, nil }
	const img = 1 << 20
	cold, err := s.RegisterTenant(TenantConfig{Name: "cold", Handler: handler, CodeSize: img})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.RegisterTenant(TenantConfig{Name: "warm", Handler: handler, CodeSize: img, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	if c := cold.TransferCycles(); c <= 0 || c != warm.TransferCycles() {
		t.Fatalf("modeled cold-start transfer %d cycles, want > 0 and equal for equal images (warm %d)", c, warm.TransferCycles())
	}

	first := func(tn *Tenant, key uint64) time.Duration {
		tk, err := tn.Submit(Request{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		res := tk.Wait()
		if res.Status != StatusOK {
			t.Fatalf("%s: status %v", tn.Name(), res.Status)
		}
		return res.Total
	}
	warmLat := first(warm, 1)
	if n := s.Stats().CodeTransfers; n != 0 {
		t.Fatalf("warm tenant paid %d code transfers; percolation should have prepaid", n)
	}
	coldLat := first(cold, 1)
	if n := s.Stats().CodeTransfers; n != 1 {
		t.Fatalf("cold first request paid %d transfers, want exactly 1", n)
	}
	if coldLat <= warmLat {
		t.Errorf("cold first request (%v) should exceed warm (%v)", coldLat, warmLat)
	}
	// Same key lands on the same shard: the image is now resident, so
	// the repeat request runs warm and pays no further transfer.
	repeat := first(cold, 1)
	if n := s.Stats().CodeTransfers; n != 1 {
		t.Fatalf("repeat request paid a transfer (total %d), image should be resident", n)
	}
	if repeat >= coldLat {
		t.Errorf("repeat request (%v) should run warm, cold was %v", repeat, coldLat)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 8, QueueDepth: 4096})
	defer s.Close()

	var sum atomic.Int64
	handles := make([]*Tenant, 4)
	for i, name := range []string{"a", "b", "c", "d"} {
		tn, err := s.RegisterTenant(TenantConfig{
			Name: name,
			Handler: func(_ *Ctx, req Request) (any, error) {
				sum.Add(int64(req.Key))
				return nil, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = tn
	}
	const clients, each = 8, 400
	var wg sync.WaitGroup
	var want, rejected atomic.Int64
	var done sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := uint64(c*each + i)
				done.Add(1)
				err := handles[i%4].SubmitFunc(Request{Key: k}, func(Result) { done.Done() })
				if errors.Is(err, ErrOverload) {
					rejected.Add(1)
					done.Done()
					continue
				}
				if err != nil {
					t.Error(err)
					done.Done()
					return
				}
				want.Add(int64(k))
			}
		}()
	}
	wg.Wait()
	done.Wait()
	if sum.Load() != want.Load() {
		t.Errorf("handler key sum = %d, want %d (rejected %d)", sum.Load(), want.Load(), rejected.Load())
	}
	st := s.Stats()
	if st.Accepted+st.Rejected != clients*each {
		t.Errorf("accounting leak: accepted %d + rejected %d != %d", st.Accepted, st.Rejected, clients*each)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var completed atomic.Int64
	const n = 200
	for i := 0; i < n; i++ {
		if err := tn.SubmitFunc(Request{Key: uint64(i)}, func(r Result) {
			if r.Status == StatusOK {
				completed.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // must drain the tail, not drop it
	if completed.Load() != n {
		t.Errorf("completed %d of %d after Close", completed.Load(), n)
	}
	// Submissions after Close are refused with the dedicated error, not
	// mistaken for backpressure.
	if _, err := tn.Submit(Request{Key: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close = %v, want ErrClosed", err)
	}
}

func TestLoadGenShedsUnderOverload(t *testing.T) {
	for _, burst := range []bool{false, true} {
		t.Run(fmt.Sprintf("burst=%v", burst), func(t *testing.T) {
			sys := newTestSystem(t)
			defer sys.Close()
			s := New(sys, Config{Shards: 2, QueueDepth: 64, Batch: 8})
			defer s.Close()
			// ~4ms of spin per job on 2 shards: capacity far below the
			// offered 5000/s, so the player must observe
			// rejection/shedding, and the server must stay responsive.
			tn, err := s.RegisterTenant(TenantConfig{
				Name:    "hog",
				Handler: func(_ *Ctx, _ Request) (any, error) { spinWork(20000); return nil, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			// 5 arrivals per 1ms tick for 300ms; half carry a 5-tick
			// deadline, the rest none.
			sc := OpenLoopScenario(42, 1, 300, 5, 0, 0).WithDeadline(42, 0.5, 5, 0)
			cfg := PlayConfig{Tenants: []*Tenant{tn}, Tick: time.Millisecond}
			if !burst {
				// One arrival at a time: a full shard is a submission error.
				cfg.Submit = func(_ Arrival, req Request, done func(Result)) error { return tn.SubmitFunc(req, done) }
			}
			rep := PlayScenario(s, sc, cfg)
			if rep.Offered == 0 || rep.Completed == 0 {
				t.Fatalf("degenerate run: %+v", rep)
			}
			if rep.Rejected+rep.Shed == 0 {
				t.Errorf("open-loop overload must shed or reject: %+v", rep)
			}
			if got := rep.Offered - rep.Completed - rep.Rejected - rep.Shed - rep.Failed; got != 0 {
				t.Errorf("job accounting leak: %d unaccounted of %+v", got, rep)
			}
		})
	}
}

func TestZipfPickerSkews(t *testing.T) {
	pick := zipfPicker(8, 1.2)
	r := newTestRNG()
	counts := make([]int, 8)
	for i := 0; i < 10000; i++ {
		counts[pick(r)]++
	}
	if counts[0] <= counts[7] {
		t.Errorf("skewed picker should favor tenant 0: %v", counts)
	}
	var total int
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Errorf("picker out of range: %v", counts)
	}
}
