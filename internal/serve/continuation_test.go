package serve

// Same-shard continuation: a flow's next stage job, routed to the shard
// whose batch produced it, joins that batch instead of the ring — when
// nothing is queued there, the batch is below its limit and the server
// is open (batchRun.fits). These tests pin each half of that rule and
// that a continuation is admitted, shed and closed like any other job.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contServer is a one-shard server with an echo tenant whose plain
// submissions log their payload to order.
type contServer struct {
	s     *Server
	tn    *Tenant
	mu    sync.Mutex
	order []string
}

func newContServer(t *testing.T, cfg Config) *contServer {
	t.Helper()
	sys := newTestSystem(t)
	t.Cleanup(sys.Close)
	cfg.Shards = 1
	cs := &contServer{s: New(sys, cfg)}
	t.Cleanup(cs.s.Close) // runs before sys.Close
	tn, err := cs.s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, req Request) (any, error) {
			cs.log(req.Payload.(string))
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.tn = tn
	return cs
}

func (cs *contServer) log(s string) {
	cs.mu.Lock()
	cs.order = append(cs.order, s)
	cs.mu.Unlock()
}

func (cs *contServer) pipe(t *testing.T, stages ...Stage) *Pipeline {
	t.Helper()
	p, err := cs.tn.NewPipeline("p", stages...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fanIn is a Map-then-aggregate pair: the Map stage echoes each element,
// the aggregate stage counts its runs and returns the joined width.
func fanIn(joins *atomic.Int32) (Stage, Stage) {
	return Stage{Name: "each", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "agg", Handler: func(_ *Ctx, req Request) (any, error) {
			joins.Add(1)
			return len(req.Payload.([]any)), nil
		}}
}

func parts(n int) []any {
	ps := make([]any, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

func checkBooks(t *testing.T, s *Server) Stats {
	t.Helper()
	st := s.Stats()
	if st.Accepted != st.Done+st.Shed {
		t.Errorf("accepted %d != done %d + shed %d", st.Accepted, st.Done, st.Shed)
	}
	if fi := st.Flow.InFlight(); fi != 0 {
		t.Errorf("%d flows in flight: %+v", fi, st.Flow)
	}
	return st
}

// TestContinuationOneBatchPerFlow: on an idle server a same-key flow —
// scalar, an unrouted Map over eight, scalar — runs start to end in the
// batch its first stage was drained into, as three jobs: the Map's
// elements run inside one inline-fan job.
func TestContinuationOneBatchPerFlow(t *testing.T) {
	cs := newContServer(t, Config{})
	var joins atomic.Int32
	each, agg := fanIn(&joins)
	p := cs.pipe(t, Stage{Name: "split", Handler: func(*Ctx, Request) (any, error) { return parts(8), nil }}, each, agg)
	before := cs.s.Stats()
	tk, err := cs.tn.SubmitFlow(p, Request{Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Status != StatusOK || r.Value != 8 || joins.Load() != 1 {
		t.Fatalf("flow = %+v after %d joins, want OK 8 after 1", r, joins.Load())
	}
	if r.Wait < 0 {
		t.Errorf("continuation wait %v is negative", r.Wait)
	}
	cs.s.Close()
	st := checkBooks(t, cs.s)
	if d := st.Batches - before.Batches; d != 1 {
		t.Errorf("flow took %d batches, want 1", d)
	}
	if d := st.Accepted - before.Accepted; d != 3 {
		t.Errorf("flow admitted %d jobs, want 3", d)
	}
	if st.Flow.StageJobs != 3 || st.Flow.FanOut != 8 {
		t.Errorf("flow stats %+v, want 3 stage jobs carrying 8 elements", st.Flow)
	}
	if ss := p.StageStats()[1]; ss.Done != 8 || ss.FanOut != 8 {
		t.Errorf("map stage stats %+v, want 8 elements done", ss)
	}
}

// TestContinuationNoOvertake: a same-(tenant, key) job queued in the
// ring while the flow's first stage executes runs before the flow's
// next stage, which goes through the ring behind it.
func TestContinuationNoOvertake(t *testing.T) {
	cs := newContServer(t, Config{InflightBatches: 1})
	inA, leaveA := make(chan struct{}), make(chan struct{})
	p := cs.pipe(t,
		Stage{Name: "a", Handler: func(*Ctx, Request) (any, error) {
			inA <- struct{}{}
			<-leaveA
			return nil, nil
		}},
		Stage{Name: "b", Handler: func(*Ctx, Request) (any, error) { cs.log("b"); return nil, nil }},
	)
	tk, err := cs.tn.SubmitFlow(p, Request{Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-inA
	// The shard's one batch SGT is busy, so this job waits in the ring.
	if err := cs.tn.SubmitFunc(Request{Key: 5, Payload: "queued"}, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	close(leaveA)
	if r := tk.Wait(); r.Status != StatusOK {
		t.Fatalf("flow = %+v", r)
	}
	cs.s.Close()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.order) != 2 || cs.order[0] != "queued" || cs.order[1] != "b" {
		t.Errorf("execution order %v, want [queued b]", cs.order)
	}
	if st := checkBooks(t, cs.s); st.Batches != 2 {
		t.Errorf("%d batches, want 2 (a; then the queued job and b)", st.Batches)
	}
}

// TestContinuationWideFanSpills: a routed fan (a Map stage with a Key
// derivation) wider than the batch limit continues up to the limit,
// puts the rest through the ring, and still joins exactly once. An
// unrouted fan of the same width is one inline-fan job, continued in the
// first batch.
func TestContinuationWideFanSpills(t *testing.T) {
	for _, routed := range []bool{true, false} {
		name := "unrouted"
		if routed {
			name = "routed"
		}
		t.Run(name, func(t *testing.T) {
			cs := newContServer(t, Config{Batch: 4})
			var joins atomic.Int32
			each, agg := fanIn(&joins)
			if routed {
				each.Key = func(any) uint64 { return 9 }
			}
			const width = 11
			p := cs.pipe(t, Stage{Name: "split", Handler: func(*Ctx, Request) (any, error) { return parts(width), nil }}, each, agg)
			tk, err := cs.tn.SubmitFlow(p, Request{Key: 9})
			if err != nil {
				t.Fatal(err)
			}
			if r := tk.Wait(); r.Status != StatusOK || r.Value != width || joins.Load() != 1 {
				t.Fatalf("flow = %+v after %d joins, want OK %d after exactly 1", r, joins.Load(), width)
			}
			cs.s.Close()
			st := checkBooks(t, cs.s)
			jobs := int64(3) // split, the inline fan, agg
			if routed {
				jobs = width + 2
			}
			if st.Flow.FanOut != width || st.Accepted != jobs {
				t.Errorf("fan-out %d of %d accepted jobs, want %d of %d", st.Flow.FanOut, st.Accepted, width, jobs)
			}
			if ss := p.StageStats()[1]; ss.Done != width {
				t.Errorf("map stage stats %+v, want %d elements done", ss, width)
			}
			// Routed, the first batch holds split and three elements; the
			// other eight take the ring, which drains at most four a batch.
			if routed && st.Batches < 3 {
				t.Errorf("%d batches, want the spill to take the ring", st.Batches)
			}
			if !routed && st.Batches != 1 {
				t.Errorf("%d batches, want the inline fan continued in the first", st.Batches)
			}
		})
	}
}

// TestContinuationShed: a continuation is shed by the drain's rules —
// past its deadline by execute, below the overload shed level by
// priority — and its stage never runs.
func TestContinuationShed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		a     func(s *Server)
		req   func() Request
		lowPr int64
	}{
		{"deadline", Config{},
			func(*Server) { time.Sleep(150 * time.Millisecond) },
			func() Request { return Request{Key: 1, Deadline: time.Now().Add(100 * time.Millisecond)} }, 0},
		{"priority", Config{Adapt: AdaptConfig{Enabled: true, RebalanceEvery: time.Hour}},
			func(s *Server) { s.overload.level.Store(2) },
			func() Request { return Request{Key: 1, Priority: 1} }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := newContServer(t, tc.cfg)
			var ranB atomic.Bool
			p := cs.pipe(t,
				Stage{Name: "a", Handler: func(*Ctx, Request) (any, error) { tc.a(cs.s); return nil, nil }},
				Stage{Name: "b", Handler: func(*Ctx, Request) (any, error) { ranB.Store(true); return nil, nil }},
			)
			tk, err := cs.tn.SubmitFlow(p, tc.req())
			if err != nil {
				t.Fatal(err)
			}
			if r := tk.Wait(); r.Status != StatusShed {
				t.Fatalf("flow = %+v, want shed", r)
			}
			cs.s.Close()
			if ranB.Load() {
				t.Error("the shed stage ran")
			}
			st := checkBooks(t, cs.s)
			if st.Batches != 1 || st.Shed != 1 {
				t.Errorf("%d batches, %d shed; want the continuation shed in the one batch", st.Batches, st.Shed)
			}
			if tc.lowPr > 0 {
				if got := cs.s.AdaptStats().ShedLowPriority; got != tc.lowPr {
					t.Errorf("ShedLowPriority = %d, want %d", got, tc.lowPr)
				}
			}
		})
	}
}

// TestContinuationClose: Close lands while a flow's inline fan, a
// continuation in the first batch, is running its elements. The
// elements all run, the hop after their join finds the server closed and
// is refused, and every admitted job resolves exactly once.
func TestContinuationClose(t *testing.T) {
	cs := newContServer(t, Config{})
	started, release := make(chan struct{}), make(chan struct{})
	var ranElems, ranLast atomic.Int32
	p := cs.pipe(t,
		Stage{Name: "split", Handler: func(*Ctx, Request) (any, error) { return parts(4), nil }},
		Stage{Name: "each", Map: true, Handler: func(_ *Ctx, req Request) (any, error) {
			if ranElems.Add(1) == 1 {
				started <- struct{}{}
				<-release
			}
			return req.Payload, nil
		}},
		Stage{Name: "last", Handler: func(*Ctx, Request) (any, error) { ranLast.Add(1); return nil, nil }},
	)
	var fired atomic.Int32
	var got Result
	done := make(chan struct{})
	if err := cs.tn.SubmitFlowFunc(p, Request{Key: 2}, func(r Result) {
		if fired.Add(1) == 1 {
			got = r
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	closed := make(chan struct{})
	go func() { cs.s.Close(); close(closed) }()
	waitFor(t, "Close to begin", cs.s.closed.Load)
	close(release)
	<-done
	<-closed
	if got.Status != StatusRejected || !errors.Is(got.Err, ErrClosed) {
		t.Errorf("flow = %+v, want rejected with ErrClosed", got)
	}
	if fired.Load() != 1 || ranElems.Load() != 4 || ranLast.Load() != 0 {
		t.Errorf("flow resolved %d times, %d elements and %d last stages ran; want 1, 4, 0",
			fired.Load(), ranElems.Load(), ranLast.Load())
	}
	if st := checkBooks(t, cs.s); st.Batches != 1 || st.Accepted != 2 {
		t.Errorf("%d batches, %d accepted; want the inline fan continued in the first batch", st.Batches, st.Accepted)
	}
}
