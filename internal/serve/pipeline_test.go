package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

// echoStage builds a scalar stage appending its tag to a string input.
func echoStage(tag string) Stage {
	return Stage{
		Name: tag,
		Handler: func(_ *Ctx, req Request) (any, error) {
			return req.Payload.(string) + tag, nil
		},
	}
}

// inputLog records, by stage name, the input of every stage handler
// run: how tests observe a flow's intermediate values and which of its
// stages ran.
type inputLog struct {
	mu   sync.Mutex
	seen map[string][]any
}

func newInputLog() *inputLog { return &inputLog{seen: map[string][]any{}} }

// wrap makes st record its inputs in the log.
func (l *inputLog) wrap(st Stage) Stage {
	h := st.Handler
	st.Handler = func(ctx *Ctx, req Request) (any, error) {
		l.mu.Lock()
		l.seen[st.Name] = append(l.seen[st.Name], req.Payload)
		l.mu.Unlock()
		return h(ctx, req)
	}
	return st
}

// inputs returns the inputs stage name ran on, in run order.
func (l *inputLog) inputs(name string) []any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]any(nil), l.seen[name]...)
}

func TestPipelineThreeStagesChainsValue(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	log := newInputLog()
	p, err := tn.NewPipeline("abc", log.wrap(echoStage("a")), log.wrap(echoStage("b")), log.wrap(echoStage("c")))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 || p.Name() != "abc" {
		t.Fatalf("pipeline shape: len %d name %q", p.Len(), p.Name())
	}
	tk, err := tn.SubmitFlow(p, Request{Key: 7, Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Status != StatusOK {
		t.Fatalf("flow status %v (err %v)", res.Status, res.Err)
	}
	if got := res.Value.(string); got != "xabc" {
		t.Fatalf("flow value %q, want xabc", got)
	}
	// Every intermediate value reached the next stage, once.
	for _, c := range []struct{ stage, want string }{{"a", "x"}, {"b", "xa"}, {"c", "xab"}} {
		if in := log.inputs(c.stage); len(in) != 1 || in[0] != c.want {
			t.Fatalf("stage %s inputs %v, want [%s]", c.stage, in, c.want)
		}
	}
	st := s.Stats()
	if st.Flow.Submitted != 1 || st.Flow.Completed != 1 || st.Flow.StageJobs != 3 {
		t.Errorf("flow stats = %+v", st.Flow)
	}
	ss := p.StageStats()
	for i := range ss {
		if ss[i].Done != 1 {
			t.Errorf("stage %d done = %d, want 1", i, ss[i].Done)
		}
	}
}

func TestSubmitFlowSoloMatchesSubmit(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key * 3, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tn.Submit(Request{Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := tn.SubmitFlow(tn.Solo(), Request{Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	dv, fv := direct.Wait(), flow.Wait()
	if dv.Status != StatusOK || fv.Status != StatusOK || dv.Value != fv.Value {
		t.Fatalf("solo flow diverged from Submit: %+v vs %+v", dv, fv)
	}
}

func TestPipelineFanOutFanIn(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const width = 8
	log := newInputLog()
	p, err := tn.NewPipeline("sumsq",
		Stage{Name: "parse", Handler: func(_ *Ctx, req Request) (any, error) {
			n := req.Payload.(int)
			parts := make([]any, n)
			for i := range parts {
				parts[i] = i + 1
			}
			return parts, nil
		}},
		Stage{Name: "square", Map: true,
			Key: func(v any) uint64 { return uint64(v.(int)) },
			Handler: func(_ *Ctx, req Request) (any, error) {
				x := req.Payload.(int)
				return x * x, nil
			}},
		log.wrap(Stage{Name: "sum", Handler: func(_ *Ctx, req Request) (any, error) {
			total := 0
			for _, v := range req.Payload.([]any) {
				total += v.(int)
			}
			return total, nil
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Key: 1, Payload: width})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Status != StatusOK {
		t.Fatalf("flow status %v (err %v)", res.Status, res.Err)
	}
	want := 0
	for i := 1; i <= width; i++ {
		want += i * i
	}
	if got := res.Value.(int); got != want {
		t.Fatalf("sum of squares = %d, want %d", got, want)
	}
	// The Map stage's output is the fanned-in slice, in input order.
	in := log.inputs("sum")
	if len(in) != 1 {
		t.Fatalf("sum stage ran %d times, want 1", len(in))
	}
	if vals := in[0].([]any); len(vals) != width || vals[2].(int) != 9 {
		t.Fatalf("map stage value = %v", in[0])
	}
	st := s.Stats()
	if st.Flow.FanOut != width {
		t.Errorf("fanout = %d, want %d", st.Flow.FanOut, width)
	}
	if st.Flow.StageJobs != width+2 {
		t.Errorf("stage jobs = %d, want %d", st.Flow.StageJobs, width+2)
	}
	ss := p.StageStats()
	if ss[1].Done != width || ss[1].FanOut != width {
		t.Errorf("map stage stats = %+v", ss[1])
	}
}

func TestPipelineMapFirstStage(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, InflightBatches: 1})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("mapfirst",
		Stage{Name: "neg", Map: true, Handler: func(_ *Ctx, req Request) (any, error) {
			return -req.Payload.(int), nil
		}},
		Stage{Name: "count", Handler: func(_ *Ctx, req Request) (any, error) {
			return len(req.Payload.([]any)), nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Payload: []any{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || res.Value.(int) != 3 {
		t.Fatalf("map-first flow = %+v", res)
	}
	// A Map-first stage over a non-slice payload is refused at submit.
	if _, err := tn.SubmitFlow(p, Request{Payload: 42}); err == nil {
		t.Error("non-slice payload into a Map-first stage must be refused")
	}

	// Mixed outcomes: element 1 sheds (queued behind element 0, which
	// outlives the flow deadline on the same shard; one batch SGT per
	// shard) and the later element 2 fails on the other shard. The
	// join's precedence is an element's error over an earlier non-OK
	// status, so the flow fails with that error.
	var keys [2]uint64
	for k, found := uint64(0), 0; found != 3; k++ {
		if i := shardIndex(tn.hash, k, len(s.shards)); found&(1<<i) == 0 {
			keys[i], found = k, found|1<<i
		}
	}
	boom := errors.New("boom")
	mixed, err := tn.NewPipeline("mixed",
		Stage{Name: "elem", Map: true,
			Key: func(v any) uint64 {
				if v == "fail" {
					return keys[1]
				}
				return keys[0]
			},
			Handler: func(ctx *Ctx, req Request) (any, error) {
				switch req.Payload {
				case "slow":
					time.Sleep(time.Until(ctx.Deadline()) + 10*time.Millisecond)
				case "fail":
					return nil, boom
				}
				return req.Payload, nil
			}},
		Stage{Name: "after", Handler: func(*Ctx, Request) (any, error) {
			t.Error("stage after a failed fan-out ran")
			return nil, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err = tn.SubmitFlow(mixed, Request{Payload: []any{"slow", "shed", "fail"},
		Deadline: time.Now().Add(200 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusFailed || !errors.Is(res.Err, boom) {
		t.Fatalf("mixed fan-out flow = %+v, want failed with boom", res)
	}
	if ss := mixed.StageStats()[0]; ss.Done != 1 || ss.Shed != 1 || ss.Failed != 1 {
		t.Errorf("mixed fan-out element stats = %+v, want one each of done, shed, failed", ss)
	}
}

func TestPipelineStageErrorPropagates(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	log := newInputLog()
	p, err := tn.NewPipeline("failing",
		echoStage("a"),
		Stage{Name: "bad", Handler: func(*Ctx, Request) (any, error) { return nil, boom }},
		log.wrap(echoStage("c")),
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Status != StatusFailed || !errors.Is(res.Err, boom) {
		t.Fatalf("flow result = %+v, want failed with boom", res)
	}
	if st := s.Stats(); st.Flow.Failed != 1 || st.Flow.Completed != 0 {
		t.Errorf("flow stats = %+v", st.Flow)
	}
	// Stage 0 succeeded, the failing stage failed, and the stage after
	// it never ran.
	ss := p.StageStats()
	if ss[0].Done != 1 || ss[1].Failed != 1 || ss[1].Done != 0 {
		t.Errorf("stage stats = %+v", ss)
	}
	if in := log.inputs("c"); len(in) != 0 || ss[2] != (StageStats{Name: "c"}) {
		t.Errorf("stage after the failure ran: inputs %v, stats %+v", in, ss[2])
	}
}

func TestPipelineExpiredDeadlineShedsAllStages(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	log := newInputLog()
	p, err := tn.NewPipeline("sheds",
		log.wrap(echoStage("a")),
		log.wrap(Stage{Name: "fan", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }}),
		log.wrap(echoStage("c")),
	)
	if err != nil {
		t.Fatal(err)
	}
	var final Result
	var wg sync.WaitGroup
	wg.Add(1)
	err = tn.SubmitFlowFunc(p, Request{Payload: "x", Deadline: time.Now().Add(-time.Millisecond)},
		func(r Result) {
			final = r
			wg.Done()
		})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if final.Status != StatusShed {
		t.Fatalf("expired flow status = %v, want StatusShed", final.Status)
	}
	// Stage 0 shed without running, and no stage after it was reached.
	ss := p.StageStats()
	if ss[0] != (StageStats{Name: "a", Shed: 1}) {
		t.Errorf("stage 0 stats = %+v, want one shed", ss[0])
	}
	for i, name := range []string{"a", "fan", "c"} {
		if in := log.inputs(name); len(in) != 0 {
			t.Errorf("stage %s ran on %v", name, in)
		}
		if i > 0 && ss[i] != (StageStats{Name: name}) {
			t.Errorf("stage %s stats = %+v, want zero", name, ss[i])
		}
	}
	if st := s.Stats(); st.Flow.Shed != 1 {
		t.Errorf("flow stats = %+v, want one shed flow", st.Flow)
	}
}

func TestPipelineMidFlowDeadlineShed(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 outlives the flow deadline, so the deadline expires
	// between stages: stage 1 must shed without running, and stage 2 is
	// never reached.
	var ran1 atomic.Bool
	log := newInputLog()
	p, err := tn.NewPipeline("midshed",
		Stage{Name: "slow", Handler: func(_ *Ctx, req Request) (any, error) {
			time.Sleep(8 * time.Millisecond)
			return req.Payload, nil
		}},
		Stage{Name: "later", Handler: func(_ *Ctx, req Request) (any, error) {
			ran1.Store(true)
			return req.Payload, nil
		}},
		log.wrap(echoStage("tail")),
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Payload: "x", Deadline: time.Now().Add(3 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Status != StatusShed {
		t.Fatalf("mid-flow deadline: status %v, want StatusShed", res.Status)
	}
	// The slow stage itself may have completed or shed depending on
	// when its batch SGT saw it; no stage past it completed or ran.
	if ran1.Load() {
		t.Error("post-deadline stage handler ran")
	}
	ss := p.StageStats()
	if ss[1].Done != 0 || ss[1].Failed != 0 {
		t.Errorf("post-deadline stage stats = %+v", ss[1])
	}
	if in := log.inputs("tail"); len(in) != 0 || ss[2] != (StageStats{Name: "tail"}) {
		t.Errorf("last stage reached: inputs %v, stats %+v", in, ss[2])
	}
}

func TestPipelineLocalityRoutingKeepsAccessesLocal(t *testing.T) {
	sys := newTestSystem(t) // 2 locales
	defer sys.Close()
	s := New(sys, Config{Shards: 4, Data: DataConfig{LocalityRoute: true}})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
		Objects: []DataObject{
			{Size: 1024, Home: 0}, // hot input, locale 0
			{Size: 1024, Home: 0}, // result, locale 0
			{Size: 1024, Home: 1}, // sidecar, locale 1
			{Size: 1024, Home: 1}, // sidecar, locale 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := tn.Objects()
	p, err := tn.NewPipeline("local3",
		Stage{Name: "parse",
			WorkingSet: func(any) []mem.ObjID { return objs[0:1] },
			Handler:    func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "enrich",
			WorkingSet: func(any) []mem.ObjID { return objs[2:4] },
			Handler:    func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "store",
			WorkingSet: func(any) []mem.ObjID { return objs[1:2] },
			WriteSet:   func(any) []mem.ObjID { return objs[1:2] },
			Handler:    func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 64
	tks := make([]*Ticket, flows)
	for i := range tks {
		tk, err := tn.SubmitFlow(p, Request{Key: uint64(i), Payload: i})
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	for i, tk := range tks {
		if r := tk.Wait(); r.Status != StatusOK {
			t.Fatalf("flow %d: %+v", i, r)
		}
	}
	// Every stage routed to its working set's home locale: no remote
	// accesses anywhere — the locality-routing claim for pipelines.
	if rf := sys.Space.RemoteFraction(); rf != 0 {
		t.Errorf("remote fraction = %v, want 0 (every stage at its data)", rf)
	}
	for _, ss := range p.StageStats() {
		if ss.RemoteExec != 0 || ss.LocalExec != flows {
			t.Errorf("stage %s locality split = local %d remote %d, want %d/0",
				ss.Name, ss.LocalExec, ss.RemoteExec, flows)
		}
	}
}

// TestPipelineMapFirstInheritsRequestSets: a Map-first stage 0 with no
// working-set derivation inherits the submitted Request's declarations,
// exactly like the scalar stage-0 path — its jobs route by (and record
// accesses against) the declared set. Routed by a Key derivation, every
// element is a job that records the set; unrouted, the stage is one
// inline-fan job per flow, which records it once.
func TestPipelineMapFirstInheritsRequestSets(t *testing.T) {
	for _, routed := range []bool{true, false} {
		name := "unrouted"
		if routed {
			name = "routed"
		}
		t.Run(name, func(t *testing.T) {
			sys := newTestSystem(t) // 2 locales
			defer sys.Close()
			s := New(sys, Config{Shards: 4, Data: DataConfig{LocalityRoute: true}})
			defer s.Close()
			tn, err := s.RegisterTenant(TenantConfig{
				Name:    "t",
				Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
				Objects: []DataObject{{Size: 1024, Home: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			work := Stage{Name: "work", Map: true, Handler: func(_ *Ctx, req Request) (any, error) {
				return req.Payload, nil
			}}
			if routed {
				work.Key = func(v any) uint64 { return uint64(v.(int)) }
			}
			p, err := tn.NewPipeline("mapfirst", work)
			if err != nil {
				t.Fatal(err)
			}
			const flows = 16
			for i := 0; i < flows; i++ {
				tk, err := tn.SubmitFlow(p, Request{
					Key: uint64(i), Payload: []any{1, 2},
					WorkingSet: tn.Objects(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if r := tk.Wait(); r.Status != StatusOK {
					t.Fatalf("flow %d: %+v", i, r)
				}
			}
			jobs := int64(flows)
			if routed {
				jobs = 2 * flows
			}
			if sp := sys.Space.Stats(); sp.Reads != jobs {
				t.Errorf("recorded %d reads, want %d (every job records the inherited set)", sp.Reads, jobs)
			}
			if rf := sys.Space.RemoteFraction(); rf != 0 {
				t.Errorf("remote fraction = %v, want 0 (jobs route to the inherited set's home)", rf)
			}
			if ss := p.StageStats(); ss[0].LocalExec != jobs || ss[0].FanOut != 2*flows || ss[0].Done != 2*flows {
				t.Errorf("stage stats = %+v, want %d local execs, %d elements fanned out and done", ss[0], jobs, 2*flows)
			}
		})
	}
}

// TestLegacySubmitZeroDeadlineNotShed pins a promise older than the
// handle API (the name is kept so its history stays findable): a zero
// deadline means "no deadline" — jobs must wait out any queue depth
// rather than being shed on admission or drain.
func TestLegacySubmitZeroDeadlineNotShed(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, Batch: 4, InflightBatches: 1})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, req Request) (any, error) {
			time.Sleep(200 * time.Microsecond) // force real queueing
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*Ticket, 64)
	for i := range tickets {
		tk, err := tn.Submit(Request{Key: uint64(i), Deadline: time.Time{}})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if r := tk.Wait(); r.Status != StatusOK {
			t.Fatalf("zero-deadline job %d finished %v (err %v), want StatusOK", i, r.Status, r.Err)
		}
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Errorf("zero-deadline run shed %d jobs, want 0", st.Shed)
	}
}

func TestNewPipelineValidation(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	ok := func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }
	tn, err := s.RegisterTenant(TenantConfig{Name: "a", Handler: ok})
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.RegisterTenant(TenantConfig{Name: "b", Handler: ok})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.NewPipeline(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := tn.NewPipeline("p"); err == nil {
		t.Error("zero stages accepted")
	}
	if _, err := tn.NewPipeline("p", Stage{Name: "nohandler"}); err == nil {
		t.Error("nil handler accepted")
	}
	p, err := tn.NewPipeline("p", Stage{Handler: ok})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.SubmitFlow(p, Request{}); err == nil {
		t.Error("cross-tenant flow submission accepted")
	}
	if _, err := other.SubmitFlow(nil, Request{}); err == nil {
		t.Error("nil pipeline accepted")
	}
	// Name collisions would silently merge monitor counters: rejected.
	if _, err := tn.NewPipeline("p", Stage{Handler: ok}); err == nil {
		t.Error("duplicate pipeline name accepted")
	}
	if _, err := tn.NewPipeline("q", Stage{Name: "x", Handler: ok}, Stage{Name: "x", Handler: ok}); err == nil {
		t.Error("duplicate stage name accepted")
	}
	if _, err := tn.NewPipeline("r", Stage{Name: "s1", Handler: ok}, Stage{Handler: ok}); err == nil {
		t.Error("explicit stage name colliding with a default name accepted")
	}
	if _, err := other.NewPipeline("p", Stage{Handler: ok}); err != nil {
		t.Errorf("pipeline names are per tenant, got %v", err)
	}
}

func TestPipelineMiddlewareComposesIntoStages(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	var serverMW, tenantMW atomic.Int64
	s := New(sys, Config{
		Shards: 2,
		Middleware: []Middleware{func(next Handler) Handler {
			return func(c *Ctx, r Request) (any, error) {
				serverMW.Add(1)
				return next(c, r)
			}
		}},
	})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
		Middleware: []Middleware{func(next Handler) Handler {
			return func(c *Ctx, r Request) (any, error) {
				tenantMW.Add(1)
				return next(c, r)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("mw", echoStage("a"), echoStage("b"))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Status != StatusOK {
		t.Fatalf("flow = %+v", r)
	}
	if serverMW.Load() != 2 || tenantMW.Load() != 2 {
		t.Errorf("middleware ran server=%d tenant=%d times, want 2/2 (once per stage)",
			serverMW.Load(), tenantMW.Load())
	}
}

func TestPlayScenarioFlows(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("p",
		Stage{Name: "double", Handler: func(_ *Ctx, req Request) (any, error) {
			return req.Payload.(uint64) * 2, nil
		}},
		Stage{Name: "inc", Handler: func(_ *Ctx, req Request) (any, error) {
			return req.Payload.(uint64) + 1, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	sc := BurstyScenario(3, 1, 10, 4, 5, 8, 64)
	rep := PlayScenario(s, sc, PlayConfig{
		Tenants: []*Tenant{tn},
		Tick:    200 * time.Microsecond,
		Submit: func(a Arrival, req Request, done func(Result)) error {
			req.Payload = a.Key
			err := tn.SubmitFlowFunc(p, req, done)
			return err
		},
	})
	if rep.Offered != int64(sc.Offered()) {
		t.Fatalf("offered %d, want %d", rep.Offered, sc.Offered())
	}
	if rep.Completed+rep.Rejected+rep.Shed+rep.Failed != rep.Offered {
		t.Errorf("flow outcomes do not add up: %+v", rep)
	}
	if rep.Completed != rep.Offered {
		t.Fatalf("report = %+v, want all flows completed", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Errorf("flow latency quantiles not populated: %+v", rep)
	}
	if st := s.Stats(); st.Flow.Completed != rep.Completed || st.Flow.StageJobs != 2*rep.Completed {
		t.Errorf("flow stats = %+v for %d flows", st.Flow, rep.Completed)
	}
}

// TestPipelineFlowStress pushes many concurrent flows through a
// fan-out pipeline with the full adaptivity loop on, checking the
// done-exactly-once contract and the flow accounting under steals,
// batching retunes, and contention. Runs under -race in CI.
func TestPipelineFlowStress(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 4, QueueDepth: 4096, Batch: 8,
		Adapt: AdaptConfig{Enabled: true, RebalanceEvery: 300 * time.Microsecond, LatencyBudget: time.Second},
	})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("stress",
		Stage{Name: "split", Handler: func(_ *Ctx, req Request) (any, error) {
			k := req.Payload.(uint64)
			return []any{k, k + 1, k + 2}, nil
		}},
		Stage{Name: "work", Map: true,
			Key: func(v any) uint64 { return v.(uint64) },
			Handler: func(_ *Ctx, req Request) (any, error) {
				return req.Payload.(uint64) * 2, nil
			}},
		Stage{Name: "sum", Handler: func(_ *Ctx, req Request) (any, error) {
			var total uint64
			for _, v := range req.Payload.([]any) {
				total += v.(uint64)
			}
			return total, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 50
	)
	var doneCalls atomic.Int64
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := uint64(w*perW + i)
				want := (k + k + 1 + k + 2) * 2
				var inner sync.WaitGroup
				inner.Add(1)
				err := tn.SubmitFlowFunc(p, Request{Key: k, Payload: k}, func(r Result) {
					defer inner.Done()
					doneCalls.Add(1)
					if r.Status != StatusOK || r.Value.(uint64) != want {
						bad.Add(1)
					}
				})
				if err != nil {
					t.Errorf("flow %d: %v", k, err)
					inner.Done()
					continue
				}
				inner.Wait()
			}
		}()
	}
	wg.Wait()
	total := int64(workers * perW)
	if doneCalls.Load() != total {
		t.Fatalf("done ran %d times for %d flows", doneCalls.Load(), total)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d flows produced wrong results", bad.Load())
	}
	st := s.Stats()
	if st.Flow.Submitted != total || st.Flow.Completed != total {
		t.Errorf("flow stats = %+v, want %d submitted+completed", st.Flow, total)
	}
	if got := st.Flow.StageJobs; got != total*5 {
		t.Errorf("stage jobs = %d, want %d", got, total*5)
	}
	if fi := st.Flow.InFlight(); fi != 0 {
		t.Errorf("flow in-flight = %d after drain", fi)
	}
}

// stallRouter is a fake RemoteRouter that takes every hand-off at one
// stage boundary, capturing the flow's handle for the test to finish.
type stallRouter struct {
	at    int // boundary to accept (stage index of the next stage)
	mu    sync.Mutex
	flows []Flow
}

func (sr *stallRouter) ForwardStage(next int, _ any, _ uint64, _ time.Time, _ int, fl Flow) bool {
	if next != sr.at {
		return false
	}
	sr.mu.Lock()
	sr.flows = append(sr.flows, fl)
	sr.mu.Unlock()
	return true
}

func (*stallRouter) Ended(Result) {}

// taken waits until the router holds n hand-offs and returns them.
func (sr *stallRouter) taken(t *testing.T, n int) []Flow {
	t.Helper()
	var flows []Flow
	waitFor(t, fmt.Sprintf("the router to take %d hand-offs", n), func() bool {
		sr.mu.Lock()
		defer sr.mu.Unlock()
		flows = append(flows[:0], sr.flows...)
		return len(flows) >= n
	})
	return flows
}

func TestPipelineRemoteRouterFinishResolvesRemainingStages(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	router := &stallRouter{at: 1}
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	log := newInputLog()
	p, err := tn.NewPipeline("abc", log.wrap(echoStage("a")), log.wrap(echoStage("b")), log.wrap(echoStage("c")))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 4)
	err = tn.SubmitFlowAt(p, 0, Request{Key: 9, Payload: "x"}, router, func(r Result) { results <- r })
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 runs locally, then the router takes the flow at the 0->1
	// boundary: the flow does not finish yet.
	flows := router.taken(t, 1)
	select {
	case r := <-results:
		t.Fatalf("flow finished %+v before the remote completion", r)
	case <-time.After(20 * time.Millisecond):
	}
	// The remote completion ends the flow with the router's result (a
	// late duplicate is dropped: TestEveryRequestResolvesExactlyOnce),
	// and no stage after the hand-off ran here.
	final := Result{Status: StatusOK, Value: "xabc-remote"}
	flows[0].Finish(final)
	r := <-results
	if r.Status != StatusOK || r.Value.(string) != "xabc-remote" {
		t.Fatalf("flow result %+v", r)
	}
	if in := log.inputs("a"); len(in) != 1 || in[0] != "x" {
		t.Errorf("stage a inputs %v, want [x]", in)
	}
	for _, name := range []string{"b", "c"} {
		if in := log.inputs(name); len(in) != 0 {
			t.Errorf("stage %s ran locally on %v after the remote hand-off", name, in)
		}
	}
	st := s.Stats()
	if st.Flow.Completed != 1 {
		t.Errorf("flow stats = %+v, want 1 completed", st.Flow)
	}
}

func TestPipelineRemoteRouterDeclinesStaysLocal(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	router := &stallRouter{at: -1} // declines every boundary
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("abc", echoStage("a"), echoStage("b"), echoStage("c"))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 1)
	if err := tn.SubmitFlowAt(p, 0, Request{Key: 3, Payload: "x"}, router, func(r Result) { results <- r }); err != nil {
		t.Fatal(err)
	}
	r := <-results
	if r.Status != StatusOK || r.Value.(string) != "xabc" {
		t.Fatalf("declined-router flow = %+v, want local xabc", r)
	}
}

// hopRecord is what a RemoteRouter was asked at one stage boundary.
type hopRecord struct {
	next     int
	v        any
	key      uint64
	deadline time.Time
	priority int
}

// recordRouter declines every hand-off and records what it was asked.
type recordRouter struct{ asked chan hopRecord }

func (rr recordRouter) ForwardStage(next int, v any, key uint64, deadline time.Time, priority int, _ Flow) bool {
	rr.asked <- hopRecord{next, v, key, deadline, priority}
	return false
}

func (recordRouter) Ended(Result) {}

// TestSubmitFlowAtRouterSeesEnteredFlow enters a flow mid-pipeline: the
// router passed at entry is consulted at the entry stage and at the next
// boundary, each time with the stage's input and the entered flow's
// key, deadline and priority, and declining keeps the flow local: the
// entry stage runs on the given input.
func TestSubmitFlowAtRouterSeesEnteredFlow(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("abc", echoStage("a"), echoStage("b"), echoStage("c"))
	if err != nil {
		t.Fatal(err)
	}
	// Room for every boundary of the pipeline, so a router consulted
	// too often fails the count below instead of blocking the flow.
	router := recordRouter{asked: make(chan hopRecord, p.Len())}
	deadline := time.Now().Add(time.Hour).Round(0)
	results := make(chan Result, 1)
	err = tn.SubmitFlowAt(p, 1, Request{Key: 77, Payload: "x", Deadline: deadline, Priority: 2}, router,
		func(r Result) { results <- r })
	if err != nil {
		t.Fatal(err)
	}
	if r := <-results; r.Status != StatusOK || r.Value.(string) != "xbc" {
		t.Fatalf("entered flow = %+v, want xbc (stages b and c only)", r)
	}
	if len(router.asked) != 2 {
		t.Fatalf("router consulted %d times, want twice (entry at b, then the b -> c boundary)", len(router.asked))
	}
	for _, want := range []hopRecord{
		{next: 1, v: "x", key: 77, deadline: deadline, priority: 2},
		{next: 2, v: "xb", key: 77, deadline: deadline, priority: 2},
	} {
		if got := <-router.asked; got != want {
			t.Errorf("router asked %+v, want %+v", got, want)
		}
	}
	if err := tn.SubmitFlowAt(p, 3, Request{}, nil, func(Result) {}); err == nil {
		t.Error("entering past the last stage was accepted")
	}
}
