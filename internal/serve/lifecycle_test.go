package serve

// The job lifecycle's contract, tested once for every way a Result can
// travel (the sink kinds) crossed with every way a request can end:
// each request resolves exactly once, the books balance, and every
// sampled trace is sealed and offered to the flight recorder once.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

type sinkKind int

const (
	kindTicket      sinkKind = iota // Tenant.Submit
	kindCallback                    // Tenant.SubmitFunc
	kindIndexed                     // Tenant.SubmitManyFunc, a burst of three
	kindElement                     // a flow whose stage b is a Map over three elements
	kindFlowLocal                   // a flow whose scalar stage b chains in-process
	kindFlowRemote                  // a flow whose stage b a fake RemoteRouter takes
	kindFlowEntered                 // a flow entered at stage b (SubmitFlowAt)
	numSinkKinds
)

var sinkKindNames = [numSinkKinds]string{"ticket", "callback", "indexed", "element", "flow-local", "flow-remote", "flow-entered"}

func (k sinkKind) flow() bool { return k >= kindElement }

// direct reports whether the job under test is the first one its
// submission admits, so a refusal of it surfaces at submission.
func (k sinkKind) direct() bool { return !k.flow() || k == kindFlowEntered }

type outcome int

const (
	outOK        outcome = iota
	outError             // handler returns an error
	outPanic             // handler panics
	outShedQueue         // deadline passes while the job sits in the ring
	outShedDrain         // deadline passes after draining, behind a batch sibling
	outOverload          // the shard's ring is full
	outClose             // the server closes first (flows: mid-flow)
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "panic", "shed-in-queue", "shed-after-drain", "overload", "close"}

var errBoom = errors.New("boom")

// want is the Result the outcome must produce (for the remote kind it is
// also what the fake router's completion parcel carries).
func (o outcome) want() Result {
	switch o {
	case outOK:
		return Result{Status: StatusOK, Value: "v"}
	case outError, outPanic:
		return Result{Status: StatusFailed, Err: errBoom}
	case outShedQueue, outShedDrain:
		return Result{Status: StatusShed}
	case outOverload:
		return Result{Status: StatusRejected, Err: ErrOverload}
	}
	return Result{Status: StatusRejected, Err: ErrClosed}
}

// parcelRouter is a fake RemoteRouter that takes every hand-off and
// answers it with one completion parcel — and then a duplicate, the way
// a retried parcel would arrive.
type parcelRouter struct {
	result Result
	wg     sync.WaitGroup
}

func (pr *parcelRouter) ForwardStage(_ int, _ any, _ uint64, _ time.Time, _ int, finish func(Result)) bool {
	pr.wg.Add(1)
	go func() {
		defer pr.wg.Done()
		finish(pr.result)
		finish(pr.result)
	}()
	return true
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestEveryRequestResolvesExactlyOnce(t *testing.T) {
	for k := sinkKind(0); k < numSinkKinds; k++ {
		for o := outcome(0); o < numOutcomes; o++ {
			t.Run(fmt.Sprintf("%s/%s", sinkKindNames[k], outcomeNames[o]), func(t *testing.T) {
				t.Parallel()
				runLifecycleCase(t, k, o)
			})
		}
	}
}

func runLifecycleCase(t *testing.T, kind sinkKind, out outcome) {
	sys := newTestSystem(t)
	defer sys.Close()
	cfg := Config{
		Shards: 2, QueueDepth: 4, Batch: 4, InflightBatches: 1,
		Observe: ObserveConfig{SampleRate: 1, RingSize: 64},
	}
	router := &parcelRouter{result: out.want()}
	s := New(sys, cfg)
	defer s.Close()

	// Stage a (and nothing else) runs on shard 0; every request under
	// test runs on shard 1, which the shed and overload outcomes clog.
	var keyA, keyB uint64
	for shardIndex(fnv64a("t"), keyA, 2) != 0 {
		keyA++
	}
	for shardIndex(fnv64a("t"), keyB, 2) != 1 {
		keyB++
	}
	behave := func() (any, error) {
		switch out {
		case outError:
			return nil, errBoom
		case outPanic:
			panic(errBoom)
		}
		return "v", nil
	}
	// Every gate also opens on the way out, before the deferred Close: a
	// failed assertion must not leave a handler — and so Close — blocked.
	started, release, leaveHold := make(chan struct{}), make(chan struct{}), make(chan struct{})
	inA, leaveA := make(chan struct{}), make(chan struct{})
	unclog := sync.OnceFunc(func() { close(release) })
	unhold := sync.OnceFunc(func() { close(leaveHold) })
	unblockA := sync.OnceFunc(func() { close(leaveA) })
	defer unclog()
	defer unhold()
	defer unblockA()
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, req Request) (any, error) {
			switch req.Payload {
			case "block":
				started <- struct{}{}
				<-release
				return nil, nil
			case "hold":
				started <- struct{}{}
				<-leaveHold
				return nil, nil
			case "fill":
				return nil, nil
			}
			return behave()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pipe *Pipeline
	if kind.flow() {
		pipe, err = tn.NewPipeline("ab",
			Stage{Name: "a", Handler: func(*Ctx, Request) (any, error) {
				if out == outClose {
					inA <- struct{}{}
					<-leaveA
				}
				return []any{1, 2, 3}, nil
			}},
			Stage{Name: "b", Map: kind == kindElement,
				Key:     func(any) uint64 { return keyB },
				Handler: func(*Ctx, Request) (any, error) { return behave() }},
		)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Clog shard 1 as far as the outcome needs, with states its batch
	// SGTs really pass through: a blocker executing, with InflightBatches
	// 1, so the next job stays queued; plus a full ring, so the next job
	// is refused. shed-after-drain also queues a second blocker ahead of
	// the jobs under test, to drain into one batch with them (below).
	if out == outShedDrain || out == outShedQueue || out == outOverload {
		ignore := func(Result) {}
		if err := tn.SubmitFunc(Request{Key: keyB, Payload: "block"}, ignore); err != nil {
			t.Fatal(err)
		}
		<-started
		if out == outShedDrain {
			if err := tn.SubmitFunc(Request{Key: keyB, Payload: "hold"}, ignore); err != nil {
				t.Fatal(err)
			}
		}
		if out == outOverload {
			for tn.SubmitFunc(Request{Key: keyB, Payload: "fill"}, ignore) == nil {
			}
		}
	}
	if out == outClose && kind.direct() {
		s.Close()
	}

	// Submit. Every resolution — a sink firing, or the error a refused
	// single submit returns instead — lands in got[i], counted.
	n := 1
	if kind == kindIndexed {
		n = 3
	}
	var fired [3]atomic.Int32
	var got [3]Result
	var resolved atomic.Int32
	resolve := func(i int, r Result) {
		if fired[i].Add(1) == 1 {
			got[i] = r
			resolved.Add(1)
		}
	}
	refusedWith := func(err error) { resolve(0, Result{Status: StatusRejected, Err: err}) }
	var deadline time.Time
	if out == outShedDrain || out == outShedQueue {
		deadline = time.Now().Add(150 * time.Millisecond)
	}
	req := Request{Key: keyB, Payload: "victim", Deadline: deadline}
	flowReq := Request{Key: keyA, Payload: "x", Deadline: deadline}
	viaErr := false
	switch kind {
	case kindTicket:
		tk, err := tn.Submit(req)
		if viaErr = err != nil; viaErr {
			refusedWith(err)
		} else {
			go func() { resolve(0, tk.Wait()) }()
		}
	case kindCallback:
		err := tn.SubmitFunc(req, func(r Result) { resolve(0, r) })
		if viaErr = err != nil; viaErr {
			refusedWith(err)
		}
	case kindIndexed:
		tn.SubmitManyFunc([]Request{req, req, req}, resolve)
	case kindFlowLocal:
		tk, err := tn.SubmitFlow(pipe, flowReq)
		if err != nil {
			t.Fatal(err)
		}
		go func() { resolve(0, tk.Wait()) }()
	case kindFlowRemote:
		if err := tn.SubmitFlowAt(pipe, 0, flowReq, router, func(r Result) { resolve(0, r) }); err != nil {
			t.Fatal(err)
		}
	case kindFlowEntered:
		err := tn.SubmitFlowAt(pipe, 1, flowReq, nil, func(r Result) { resolve(0, r) })
		if viaErr = err != nil; viaErr {
			refusedWith(err)
		}
	default:
		if _, err := tn.SubmitFlowFunc(pipe, flowReq, func(r Result) { resolve(0, r) }); err != nil {
			t.Fatal(err)
		}
	}
	if out == outShedDrain {
		// Once the jobs under test queue behind the second blocker (a
		// remote stage b never reaches shard 1), freeing the first blocker
		// drains them all into one batch. The second blocker executes
		// first, and they wait in the batch, drained but not started,
		// until their deadline has passed.
		queued := 1
		switch kind {
		case kindIndexed, kindElement:
			queued = 3
		case kindFlowRemote:
			queued = 0
		}
		waitFor(t, "the jobs under test to queue", func() bool { return s.shards[1].pending() == 1+queued })
		unclog()
		<-started
	}
	if out == outClose && !kind.direct() {
		// Close lands while stage a is executing: stage b's admission is
		// what the closing server refuses.
		<-inA
		go s.Close()
		waitFor(t, "Close to begin", s.closed.Load)
		unblockA()
	}
	if !deadline.IsZero() {
		time.Sleep(time.Until(deadline) + 50*time.Millisecond)
	}
	allResolved := func() bool { return int(resolved.Load()) == n }
	if out == outOverload {
		waitFor(t, "the refusals, with the shard still clogged", allResolved)
	}
	unclog()
	unhold()
	waitFor(t, "every request to resolve", allResolved)
	router.wg.Wait() // the duplicate parcel has landed too
	s.Close()

	want := out.want()
	if wantErr := (out == outOverload || out == outClose) && kind.direct() && kind != kindIndexed; viaErr != wantErr {
		t.Errorf("refusal surfaced as an error = %v, want %v", viaErr, wantErr)
	}
	for i := 0; i < n; i++ {
		if c := fired[i].Load(); c != 1 {
			t.Errorf("request %d resolved %d times, want exactly once", i, c)
		}
		r := got[i]
		if r.Status != want.Status {
			t.Errorf("request %d: status %v (err %v), want %v", i, r.Status, r.Err, want.Status)
		}
		if want.Status == StatusOK && r.Value != want.Value && kind != kindElement {
			t.Errorf("request %d: value %v, want %v", i, r.Value, want.Value)
		}
		if out == outPanic && kind != kindFlowRemote {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panic") {
				t.Errorf("request %d: err %v, want the recovered panic", i, r.Err)
			}
		} else if want.Err != nil && !errors.Is(r.Err, want.Err) {
			t.Errorf("request %d: err %v, want %v", i, r.Err, want.Err)
		}
	}
	st := s.Stats()
	if st.Accepted != st.Done+st.Shed {
		t.Errorf("accepted %d != done %d + shed %d at quiescence", st.Accepted, st.Done, st.Shed)
	}
	if fi := st.Flow.InFlight(); fi != 0 {
		t.Errorf("%d flows still in flight: %+v", fi, st.Flow)
	}
	if snap := s.Snapshot(); snap.Observe.TracedFlows != int64(snap.Observe.Recorded) {
		t.Errorf("%d submissions traced, %d traces sealed and recorded", snap.Observe.TracedFlows, snap.Observe.Recorded)
	}
	// Where exactly one job is under test, its trace names which of the
	// two shed sites ended it.
	if cause := map[outcome]string{outShedQueue: "in queue", outShedDrain: "before execution"}[out]; cause != "" &&
		(kind == kindTicket || kind == kindCallback || kind == kindFlowLocal || kind == kindFlowEntered) {
		found := false
		for _, ft := range s.Recorder().Failures() {
			for _, e := range ft.Events() {
				found = found || (e.Kind == trace.KindAdapt && strings.Contains(e.Label, cause))
			}
		}
		if !found {
			t.Errorf("no retained trace carries a %q shed cause", cause)
		}
	}
}

// TestRefusedFlowStage0TraceSealed is the regression test for refused
// sampled submissions that were counted as traced but never sealed: a
// flow refused at its scalar stage 0 returns ErrOverload, and its trace
// must still end — StatusRejected, offered to the recorder once — the
// way a refused burst member's always did. (A single submit refused by
// a racing Close takes the same path through refuse.)
func TestRefusedFlowStage0TraceSealed(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 1, QueueDepth: 1, Batch: 1, InflightBatches: 1,
		Observe: ObserveConfig{SampleRate: 1, RingSize: 32},
	})
	defer s.Close()
	started, release := make(chan struct{}), make(chan struct{})
	unclog := sync.OnceFunc(func() { close(release) })
	defer unclog() // before the deferred Close, even when an assertion fails
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, req Request) (any, error) {
			if req.Payload == "block" {
				started <- struct{}{}
				<-release
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("refused", echoStage("a"))
	if err != nil {
		t.Fatal(err)
	}
	ignore := func(Result) {}
	if err := tn.SubmitFunc(Request{Payload: "block"}, ignore); err != nil {
		t.Fatal(err)
	}
	<-started
	// With the blocker executing on the shard's one batch SGT, the ring
	// fills and stays full.
	for tn.SubmitFunc(Request{}, ignore) == nil {
	}
	if _, err := tn.SubmitFlow(p, Request{Key: 1, Payload: "x"}); !errors.Is(err, ErrOverload) {
		t.Fatalf("SubmitFlow into a full shard = %v, want ErrOverload", err)
	}
	sealed := 0
	for _, ft := range s.Recorder().Flows() {
		if ft.Pipeline == "refused" {
			sealed++
			if ft.Final() != StatusRejected {
				t.Errorf("refused flow's trace sealed %v, want StatusRejected", ft.Final())
			}
		}
	}
	if sealed != 1 {
		t.Errorf("refused flow's trace offered to the recorder %d times, want exactly once", sealed)
	}
	unclog()
	s.Close()
	if snap := s.Snapshot(); snap.Observe.TracedFlows != int64(snap.Observe.Recorded) {
		t.Errorf("%d submissions traced, %d traces sealed and recorded", snap.Observe.TracedFlows, snap.Observe.Recorded)
	}
	if fs := s.Stats().Flow; fs.Submitted != 0 || fs.StageJobs != 0 {
		t.Errorf("a flow refused at stage 0 never existed, yet flow stats = %+v", fs)
	}
}
