package serve

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// observedServer builds a server tracing every submission.
func observedServer(t *testing.T, shards, ring int) *Server {
	t.Helper()
	sys := newTestSystem(t)
	t.Cleanup(sys.Close)
	s := New(sys, Config{Shards: shards, Observe: ObserveConfig{SampleRate: 1, RingSize: ring}})
	t.Cleanup(s.Close)
	return s
}

func TestObserveFlowSpanTreeAttribution(t *testing.T) {
	s := observedServer(t, 4, 16)
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const width = 3
	p, err := tn.NewPipeline("obsflow",
		Stage{Name: "parse", Handler: func(_ *Ctx, _ Request) (any, error) {
			parts := make([]any, width)
			for i := range parts {
				parts[i] = i
			}
			return parts, nil
		}},
		Stage{Name: "work", Map: true,
			Key:     func(v any) uint64 { return uint64(v.(int)) },
			Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "agg", Handler: func(_ *Ctx, req Request) (any, error) {
			return len(req.Payload.([]any)), nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Key: 9, Payload: nil})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK {
		t.Fatalf("flow status %v (err %v)", res.Status, res.Err)
	}

	rec := s.Recorder()
	if rec == nil {
		t.Fatal("Recorder() nil with Observe enabled")
	}
	flows := rec.Flows()
	if len(flows) != 1 {
		t.Fatalf("recorder holds %d flows, want 1", len(flows))
	}
	span := flows[0].SpanTree()
	if span.Final != "ok" || span.Tenant != "t" || span.Pipeline != "obsflow" || span.Key != 9 {
		t.Fatalf("span root = %+v", span)
	}
	if span.TotalNS <= 0 {
		t.Fatalf("span total %d, want > 0", span.TotalNS)
	}
	// One span per scalar stage run plus one per fan-out element.
	if len(span.Stages) != 2+width {
		t.Fatalf("span has %d stage spans, want %d", len(span.Stages), 2+width)
	}
	hops, elems := 0, 0
	for _, sp := range span.Stages {
		// Every stage execution is attributed to a real shard and locale.
		if sp.Shard < 0 || sp.Shard >= 4 {
			t.Errorf("stage %d[%d] attributed to shard %d", sp.Stage, sp.Elem, sp.Shard)
		}
		if sp.Locale < 0 {
			t.Errorf("stage %d[%d] attributed to locale %d", sp.Stage, sp.Elem, sp.Locale)
		}
		if sp.Elem >= 0 {
			elems++
		}
		for _, e := range sp.Events {
			if e.Kind == "stage-hop" {
				hops++
				if e.Label == "" {
					t.Errorf("stage-hop without label in stage %d", sp.Stage)
				}
			}
		}
	}
	if elems != width {
		t.Errorf("fan-out element spans = %d, want %d", elems, width)
	}
	// Hops into the Map stage (one per element) and into the join stage.
	if hops != width+1 {
		t.Errorf("stage-hop events = %d, want %d", hops, width+1)
	}

	var buf bytes.Buffer
	flows[0].WriteText(&buf)
	txt := buf.String()
	for _, want := range []string{"flow ", "final=ok", "stage 0 parse", "work[0]", "stage-hop", "complete"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text dump missing %q:\n%s", want, txt)
		}
	}
}

// TestObserveInlineFanTracesElements: an unrouted Map stage runs as one
// inline-fan job, yet its trace still shows every element — one
// dispatch/complete pair per element under the element's own span, as a
// job per element would record — beside the one job's admission.
func TestObserveInlineFanTracesElements(t *testing.T) {
	s := observedServer(t, 4, 16)
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const width = 3
	p, err := tn.NewPipeline("inline",
		Stage{Name: "parse", Handler: func(*Ctx, Request) (any, error) { return []any{0, 1, 2}, nil }},
		Stage{Name: "work", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "agg", Handler: func(_ *Ctx, req Request) (any, error) { return len(req.Payload.([]any)), nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.SubmitFlow(p, Request{Key: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || res.Value != width {
		t.Fatalf("flow = %+v", res)
	}
	if st := s.Stats(); st.Flow.StageJobs != 3 {
		t.Fatalf("%d stage jobs, want 3 (the fan is one)", st.Flow.StageJobs)
	}
	flows := s.Recorder().Flows()
	if len(flows) != 1 {
		t.Fatalf("recorder holds %d flows, want 1", len(flows))
	}
	pairs := map[int64][2]int{} // arg -> dispatch, complete counts
	for _, e := range flows[0].Events() {
		c := pairs[e.Arg]
		switch e.Kind {
		case trace.KindDispatch:
			c[0]++
		case trace.KindComplete:
			c[1]++
		}
		pairs[e.Arg] = c
	}
	for i := 0; i < width; i++ {
		if c := pairs[spanArg(1, int32(i)+1)]; c != [2]int{1, 1} {
			t.Errorf("element %d: %d dispatch, %d complete events, want one each", i, c[0], c[1])
		}
	}
	if c := pairs[spanArg(1, 0)]; c != [2]int{} {
		t.Errorf("the fan's job itself recorded %v dispatch/complete events, want none", c)
	}
	span := flows[0].SpanTree()
	elems := 0
	for _, sp := range span.Stages {
		if sp.Stage == 1 && sp.Elem >= 0 {
			elems++
		}
	}
	if elems != width {
		t.Errorf("%d element spans, want %d", elems, width)
	}
	var buf bytes.Buffer
	flows[0].WriteText(&buf)
	for i := 0; i < width; i++ {
		if want := fmt.Sprintf("work[%d]", i); !strings.Contains(buf.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, buf.String())
		}
	}
}

func TestObserveShedFlowRetainedWithCause(t *testing.T) {
	s := observedServer(t, 2, 8)
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var final Result
	err = tn.SubmitFunc(Request{Key: 1, Deadline: time.Now().Add(-time.Millisecond)},
		func(r Result) { final = r; wg.Done() })
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if final.Status != StatusShed {
		t.Fatalf("expired request status %v, want StatusShed", final.Status)
	}

	fails := s.Recorder().Failures()
	if len(fails) != 1 {
		t.Fatalf("recorder failures = %d, want 1", len(fails))
	}
	ft := fails[0]
	if ft.Final() != StatusShed {
		t.Fatalf("retained flow final %v, want StatusShed", ft.Final())
	}
	// The trace must carry the KindAdapt decision that killed the flow,
	// then the KindShed outcome.
	var cause string
	shed := false
	for _, e := range ft.Events() {
		switch e.Kind {
		case trace.KindAdapt:
			cause = e.Label
		case trace.KindShed:
			shed = true
		}
	}
	if !shed || !strings.Contains(cause, "deadline expired") {
		t.Fatalf("shed flow trace: shed=%v cause=%q, want shed event with deadline cause", shed, cause)
	}
}

func TestFlightRecorderRetention(t *testing.T) {
	mk := func(id uint64, st Status) *FlowTrace {
		f := &FlowTrace{ID: id}
		f.seal(st)
		return f
	}
	ids := func(fs []*FlowTrace) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = f.ID
		}
		return out
	}

	r := &FlightRecorder{cap: 3}
	for i := uint64(1); i <= 3; i++ {
		r.offer(mk(i, StatusOK))
	}
	if r.Len() != 3 {
		t.Fatalf("len %d after fill, want 3", r.Len())
	}
	// A failure entering a full ring evicts the oldest OK trace.
	r.offer(mk(4, StatusShed))
	if got := ids(r.Flows()); r.Len() != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("after shed insert: %v", got)
	}
	// Fill the ring with failures.
	r.offer(mk(5, StatusFailed))
	r.offer(mk(6, StatusRejected))
	if got := ids(r.Flows()); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("after failing fill: %v", got)
	}
	// An OK newcomer never evicts a retained failure.
	r.offer(mk(7, StatusOK))
	if got := ids(r.Flows()); r.Len() != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("OK displaced a failure: %v", got)
	}
	// Another failure displaces the oldest failure — never grows the ring.
	r.offer(mk(8, StatusShed))
	if got := ids(r.Flows()); r.Len() != 3 || got[0] != 5 || got[2] != 8 {
		t.Fatalf("after failure rollover: %v", got)
	}
	if n := len(r.Failures()); n != 3 {
		t.Fatalf("failures = %d, want 3", n)
	}
}

func TestFlowTraceConcurrentEmission(t *testing.T) {
	ft := &FlowTrace{ID: 1, Start: time.Now().UnixNano()}
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ft.add(trace.KindUser, w, 0, spanArg(0, 0), "")
				if i%50 == 0 {
					ft.Events() // concurrent merged reads
					ft.SpanTree()
				}
			}
		}(w)
	}
	wg.Wait()
	ft.seal(StatusOK)
	evs := ft.Events()
	if len(evs) != workers*perWorker {
		t.Fatalf("events = %d, want %d", len(evs), workers*perWorker)
	}
	// Merge yields the deterministic total order of trace.Before.
	for i := 1; i < len(evs); i++ {
		if trace.Before(evs[i], evs[i-1]) {
			t.Fatalf("events %d and %d out of order", i-1, i)
		}
	}
}

func TestFlowTraceEventCap(t *testing.T) {
	ft := &FlowTrace{ID: 1}
	for i := 0; i < maxFlowEvents+100; i++ {
		ft.add(trace.KindUser, 0, 0, 0, "")
	}
	if n := len(ft.Events()); n != maxFlowEvents {
		t.Fatalf("events = %d, want cap %d", n, maxFlowEvents)
	}
}

func TestObserveDeterministicSampling(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, Observe: ObserveConfig{SampleRate: 0.25, RingSize: 64}})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		tk, err := tn.Submit(Request{Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tk.Wait() // sequential, so the sample counter is deterministic
	}
	snap := s.Snapshot()
	if !snap.Observe.Enabled {
		t.Fatal("snapshot reports observability disabled")
	}
	if snap.Observe.TracedFlows != n/4 {
		t.Fatalf("traced %d of %d at rate 0.25, want exactly %d", snap.Observe.TracedFlows, n, n/4)
	}
	if snap.Observe.Recorded != n/4 {
		t.Fatalf("recorded %d, want %d", snap.Observe.Recorded, n/4)
	}
}

func TestObserveDisabledZeroValue(t *testing.T) {
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
	tk, err := tn.Submit(Request{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK {
		t.Fatalf("status %v", res.Status)
	}
	if s.Recorder() != nil {
		t.Fatal("Recorder() non-nil with Observe zero-valued")
	}
	d := s.TraceDump()
	if len(d.Adapt) != 0 || len(d.Flows) != 0 {
		t.Fatalf("TraceDump non-empty: %+v", d)
	}
	snap := s.Snapshot()
	if snap.Observe.Enabled || snap.Observe.TracedFlows != 0 {
		t.Fatalf("observe snapshot = %+v, want disabled", snap.Observe)
	}
}

func TestPlayScenarioDumpsTraces(t *testing.T) {
	s := observedServer(t, 4, 32)
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t0",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := HotKeyScenario(7, 1, 20, 4, 256, 0.5)
	var buf bytes.Buffer
	rep := PlayScenario(s, sc, PlayConfig{
		Tenants:    []*Tenant{tn},
		Tick:       100 * time.Microsecond,
		DumpTraces: &buf,
	})
	if rep.Completed == 0 {
		t.Fatalf("scenario completed nothing: %+v", rep)
	}
	txt := buf.String()
	if !strings.Contains(txt, "flight recorder:") || !strings.Contains(txt, "flow ") {
		t.Fatalf("trace dump missing recorder content:\n%.400s", txt)
	}
	// Every dumped flow line carries its shard and locale attribution.
	if !strings.Contains(txt, "shard=") || !strings.Contains(txt, "locale=") {
		t.Fatalf("trace dump missing attribution:\n%.400s", txt)
	}
}
