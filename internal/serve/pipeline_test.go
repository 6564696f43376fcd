package serve

import (
	"errors"
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
	p, err := tn.NewPipeline("abc", echoStage("a"), echoStage("b"), echoStage("c"))
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
	if tk.Stages() != 3 {
		t.Fatalf("ticket stages = %d, want 3", tk.Stages())
	}
	// Every intermediate value is observable through its stage future.
	for i, want := range []string{"xa", "xab", "xabc"} {
		r, err := tk.StageFuture(i).GetErr()
		if err != nil || r.Status != StatusOK {
			t.Fatalf("stage %d: status %v err %v", i, r.Status, err)
		}
		if got := r.Value.(string); got != want {
			t.Fatalf("stage %d value %q, want %q", i, got, want)
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
	if flow.Stages() != 1 {
		t.Errorf("solo flow stages = %d, want 1", flow.Stages())
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
		Stage{Name: "sum", Handler: func(_ *Ctx, req Request) (any, error) {
			total := 0
			for _, v := range req.Payload.([]any) {
				total += v.(int)
			}
			return total, nil
		}},
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
	// The Map stage future carries the fanned-in slice.
	mid, _ := tk.StageFuture(1).GetErr()
	if vals := mid.Value.([]any); len(vals) != width || vals[2].(int) != 9 {
		t.Fatalf("map stage value = %v", mid.Value)
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
	s := New(sys, Config{Shards: 2})
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
	p, err := tn.NewPipeline("failing",
		echoStage("a"),
		Stage{Name: "bad", Handler: func(*Ctx, Request) (any, error) { return nil, boom }},
		echoStage("c"),
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
	// Stage 0 succeeded; the failing stage and everything downstream
	// resolve failed, with the error on the future's error channel.
	if r, err := tk.StageFuture(0).GetErr(); err != nil || r.Status != StatusOK {
		t.Errorf("stage 0 = %v / %v", r.Status, err)
	}
	for i := 1; i < 3; i++ {
		r, err := tk.StageFuture(i).GetErr()
		if !errors.Is(err, boom) || r.Status != StatusFailed {
			t.Errorf("stage %d = %v / %v, want failed/boom", i, r.Status, err)
		}
	}
	if st := s.Stats(); st.Flow.Failed != 1 || st.Flow.Completed != 0 {
		t.Errorf("flow stats = %+v", st.Flow)
	}
	if ss := p.StageStats(); ss[1].Failed != 1 {
		t.Errorf("failing stage stats = %+v", ss[1])
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
	p, err := tn.NewPipeline("sheds",
		echoStage("a"),
		Stage{Name: "fan", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		echoStage("c"),
	)
	if err != nil {
		t.Fatal(err)
	}
	var final Result
	var wg sync.WaitGroup
	wg.Add(1)
	futs, err := tn.SubmitFlowFunc(p, Request{Payload: "x", Deadline: time.Now().Add(-time.Millisecond)},
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
	// Every downstream future resolves with StatusShed — none is left
	// dangling, none carries a value.
	for i, f := range futs {
		r, err := f.GetErr()
		if err != nil || r.Status != StatusShed {
			t.Errorf("stage %d future = %v / %v, want shed", i, r.Status, err)
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
	// between stages: stage 1 and 2 must shed without running.
	var ran1 atomic.Bool
	p, err := tn.NewPipeline("midshed",
		Stage{Name: "slow", Handler: func(_ *Ctx, req Request) (any, error) {
			time.Sleep(8 * time.Millisecond)
			return req.Payload, nil
		}},
		Stage{Name: "later", Handler: func(_ *Ctx, req Request) (any, error) {
			ran1.Store(true)
			return req.Payload, nil
		}},
		echoStage("tail"),
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
	// Stages past the shed point resolve shed; the slow stage itself may
	// have completed or shed depending on when its batch SGT saw it.
	for i := 1; i < 3; i++ {
		r, _ := tk.StageFuture(i).GetErr()
		if r.Status != StatusShed {
			t.Errorf("stage %d status = %v, want shed", i, r.Status)
		}
	}
	if ran1.Load() {
		t.Error("post-deadline stage handler ran")
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
// exactly like the scalar stage-0 path — the elements route by (and
// record accesses against) the declared set.
func TestPipelineMapFirstInheritsRequestSets(t *testing.T) {
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
	p, err := tn.NewPipeline("mapfirst",
		Stage{Name: "work", Map: true, Handler: func(_ *Ctx, req Request) (any, error) {
			return req.Payload, nil
		}},
	)
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
	sp := sys.Space.Stats()
	if sp.Reads != 2*flows {
		t.Errorf("recorded %d reads, want %d (every element records the inherited set)", sp.Reads, 2*flows)
	}
	if rf := sys.Space.RemoteFraction(); rf != 0 {
		t.Errorf("remote fraction = %v, want 0 (elements route to the inherited set's home)", rf)
	}
	if ss := p.StageStats(); ss[0].LocalExec != 2*flows || ss[0].FanOut != 2*flows {
		t.Errorf("stage stats = %+v, want %d local execs + fanout", ss[0], 2*flows)
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
			_, err := tn.SubmitFlowFunc(p, req, done)
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
				_, err := tn.SubmitFlowFunc(p, Request{Key: k, Payload: k}, func(r Result) {
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
// stage boundary, capturing the finish callback for the test to fire.
type stallRouter struct {
	at     int // boundary to accept (stage index of the next stage)
	mu     sync.Mutex
	finish []func(Result)
}

func (sr *stallRouter) ForwardStage(next int, _ any, _ uint64, _ time.Time, _ int, finish func(Result)) bool {
	if next != sr.at {
		return false
	}
	sr.mu.Lock()
	sr.finish = append(sr.finish, finish)
	sr.mu.Unlock()
	return true
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
	p, err := tn.NewPipeline("abc", echoStage("a"), echoStage("b"), echoStage("c"))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 4)
	// The flow's router is passed at entry, as SubmitFlowAt does; the
	// unexported form also makes and returns the futures under test.
	futs, err := tn.submitFlow(p, 0, Request{Key: 9, Payload: "x"}, router,
		callbackSink(func(r Result) { results <- r }), true)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 runs locally; its future resolves before the router is
	// consulted at the 0->1 boundary.
	r0, err := futs[0].GetErr()
	if err != nil || r0.Value.(string) != "xa" {
		t.Fatalf("stage 0 = %+v, %v; want xa", r0, err)
	}
	// The router took the flow: nothing past stage 0 resolves yet.
	deadline := time.Now().Add(2 * time.Second)
	for {
		router.mu.Lock()
		n := len(router.finish)
		router.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router captured %d hand-offs, want 1", n)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-results:
		t.Fatalf("flow finished %+v before the remote completion", r)
	case <-time.After(20 * time.Millisecond):
	}
	// The remote completion resolves stages 1..2 and the flow (a late
	// duplicate is dropped: TestEveryRequestResolvesExactlyOnce).
	final := Result{Status: StatusOK, Value: "xabc-remote"}
	router.finish[0](final)
	r := <-results
	if r.Status != StatusOK || r.Value.(string) != "xabc-remote" {
		t.Fatalf("flow result %+v", r)
	}
	for i := 1; i < 3; i++ {
		ri, err := futs[i].GetErr()
		if err != nil || ri.Value.(string) != "xabc-remote" {
			t.Fatalf("stage %d = %+v, %v; want remote terminal", i, ri, err)
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

func (rr recordRouter) ForwardStage(next int, v any, key uint64, deadline time.Time, priority int, _ func(Result)) bool {
	rr.asked <- hopRecord{next, v, key, deadline, priority}
	return false
}

// TestSubmitFlowAtRouterSeesEnteredFlow enters a flow mid-pipeline: the
// entry stage runs on the given input, the router passed at entry is
// consulted at the next boundary with the entered flow's key, deadline
// and priority, and declining keeps the rest of the flow local.
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
	if len(router.asked) != 1 {
		t.Fatalf("router consulted %d times, want once (the b -> c boundary)", len(router.asked))
	}
	want := hopRecord{next: 2, v: "xb", key: 77, deadline: deadline, priority: 2}
	if got := <-router.asked; got != want {
		t.Errorf("router asked %+v, want %+v", got, want)
	}
	if err := tn.SubmitFlowAt(p, 3, Request{}, nil, func(Result) {}); err == nil {
		t.Error("entering past the last stage was accepted")
	}
}
