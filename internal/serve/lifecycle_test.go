package serve

// The job lifecycle's contract, tested once for every way a Result can
// travel (the sink kinds) crossed with every way a request can end:
// each request resolves exactly once, the books balance, and every
// sampled trace is sealed and offered to the flight recorder once.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

type sinkKind int

const (
	kindTicket      sinkKind = iota // Tenant.Submit
	kindCallback                    // Tenant.SubmitFunc
	kindElement                     // a flow whose stage b is a Map over three elements
	kindFlowLocal                   // a flow whose scalar stage b chains in-process
	kindFlowRemote                  // a flow whose stage b a fake RemoteRouter takes
	kindFlowEntered                 // a flow entered at stage b (SubmitFlowAt)
	kindFlowSame                    // kindFlowLocal with a on b's shard: b continues a's batch
	kindElementSame                 // kindElement with a on b's shard: the elements continue a's batch
	numSinkKinds
)

var sinkKindNames = [numSinkKinds]string{"ticket", "callback", "element", "flow-local", "flow-remote", "flow-entered",
	"flow-same-shard", "element-same-shard"}

func (k sinkKind) flow() bool { return k >= kindElement }

// direct reports whether the job under test is the first one its
// submission admits, so a refusal of it surfaces at submission.
func (k sinkKind) direct() bool { return !k.flow() || k == kindFlowEntered }

// same reports whether stage a runs on shard 1 too, so that stage b
// would join a's batch as a continuation: the shard-clogging outcomes
// then act while a executes (see runLifecycleCase).
func (k sinkKind) same() bool { return k == kindFlowSame || k == kindElementSame }

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

// parcelRouter is a fake RemoteRouter that takes every hand-off to
// stage b and answers it with one completion parcel — and then a
// duplicate, the way a retried parcel would arrive, once the flow's
// record has recycled and (when the pool hands it back) been taken for
// a new flow, which the stale handle must leave running.
type parcelRouter struct {
	result Result
	wg     sync.WaitGroup
	// reused counts duplicates that landed on a reused record; ended
	// counts those that terminated it anyway.
	reused, ended atomic.Int32
}

func (pr *parcelRouter) ForwardStage(next int, _ any, _ uint64, _ clock.Nanos, _ int, fl Flow) bool {
	if next != 1 {
		return false
	}
	pr.wg.Add(1)
	go func() {
		defer pr.wg.Done()
		// Once the hand-off's stage job has let go of the flow, the
		// completion drops its last reference and recycles it here.
		for fl.fl.refs.Load() > 1 {
			runtime.Gosched()
		}
		fl.Finish(pr.result)
		next := reclaimFlowState(fl.fl)
		fl.Finish(pr.result)
		if next != nil {
			pr.reused.Add(1)
			if next.state.Load()&1 != 0 {
				pr.ended.Add(1)
			}
			next.unref()
		}
	}()
	return true
}

func (*parcelRouter) Ended(Result) {}

// reclaimFlowState draws flow states from the pool, as the next flows
// would, until it is handed fl back, and returns it — live, at its new
// generation. It returns nil if the pool keeps other records (or, under
// the race detector, dropped fl).
func reclaimFlowState(fl *flowState) *flowState {
	var others []*flowState
	defer func() {
		for _, o := range others {
			o.unref()
		}
	}()
	for i := 0; i < 64; i++ {
		if next := newFlowState(); next != fl {
			others = append(others, next)
			runtime.Gosched()
		} else {
			return next
		}
	}
	return nil
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
				if out == outClose || kind.same() && out >= outShedQueue {
					inA <- struct{}{}
					<-leaveA
				}
				return []any{1, 2, 3}, nil
			}},
			Stage{Name: "b", Map: kind == kindElement || kind == kindElementSame,
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
	if !kind.same() && (out == outShedDrain || out == outShedQueue || out == outOverload) {
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
	// submission returns instead — lands in got, counted.
	var fired atomic.Int32
	var got Result
	var resolved atomic.Bool
	resolve := func(r Result) {
		if fired.Add(1) == 1 {
			got = r
			resolved.Store(true)
		}
	}
	refusedWith := func(err error) { resolve(Result{Status: StatusRejected, Err: err}) }
	var deadline time.Time
	if out == outShedDrain || out == outShedQueue {
		deadline = time.Now().Add(150 * time.Millisecond)
	}
	req := Request{Key: keyB, Payload: "victim", Deadline: deadline}
	flowReq := Request{Key: keyA, Payload: "x", Deadline: deadline}
	if kind.same() {
		flowReq.Key = keyB
	}
	viaErr := false
	switch kind {
	case kindTicket:
		tk, err := tn.Submit(req)
		if viaErr = err != nil; viaErr {
			refusedWith(err)
		} else {
			go func() { resolve(tk.Wait()) }()
		}
	case kindCallback:
		err := tn.SubmitFunc(req, func(r Result) { resolve(r) })
		if viaErr = err != nil; viaErr {
			refusedWith(err)
		}
	case kindFlowLocal:
		tk, err := tn.SubmitFlow(pipe, flowReq)
		if err != nil {
			t.Fatal(err)
		}
		go func() { resolve(tk.Wait()) }()
	case kindFlowRemote:
		if err := tn.SubmitFlowAt(pipe, 0, flowReq, router, func(r Result) { resolve(r) }); err != nil {
			t.Fatal(err)
		}
	case kindFlowEntered:
		err := tn.SubmitFlowAt(pipe, 1, flowReq, nil, func(r Result) { resolve(r) })
		if viaErr = err != nil; viaErr {
			refusedWith(err)
		}
	default:
		if err := tn.SubmitFlowFunc(pipe, flowReq, func(r Result) { resolve(r) }); err != nil {
			t.Fatal(err)
		}
	}
	if kind.same() && out != outClose && out >= outShedQueue {
		// Stage a executes on shard 1 and holds; each outcome sets up
		// what stage b meets when a returns, past b's deadline for the
		// shed outcomes. shed-in-queue: a job queued in the ring, which b
		// may not overtake, so b queues behind it and is shed when they
		// drain. shed-after-drain: b continues a's batch and is shed
		// there. overload: a full ring, which refuses b.
		<-inA
		ignore := func(Result) {}
		switch out {
		case outShedQueue:
			if err := tn.SubmitFunc(Request{Key: keyB, Payload: "block"}, ignore); err != nil {
				t.Fatal(err)
			}
		case outOverload:
			for tn.SubmitFunc(Request{Key: keyB, Payload: "fill"}, ignore) == nil {
			}
		}
		if !deadline.IsZero() {
			time.Sleep(time.Until(deadline) + 50*time.Millisecond)
		}
		unblockA()
		if out == outShedQueue {
			<-started
		}
	}
	if out == outShedDrain && !kind.same() {
		// Once the jobs under test queue behind the second blocker (a
		// remote stage b never reaches shard 1), freeing the first blocker
		// drains them all into one batch. The second blocker executes
		// first, and they wait in the batch, drained but not started,
		// until their deadline has passed.
		queued := 1
		switch kind {
		case kindElement:
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
	if out == outOverload {
		waitFor(t, "the refusal, with the shard still clogged", resolved.Load)
	}
	unclog()
	unhold()
	waitFor(t, "the request to resolve", resolved.Load)
	router.wg.Wait() // the duplicate parcel has landed too
	s.Close()
	if n := router.ended.Load(); n != 0 {
		t.Errorf("a stale completion ended the flow that reused its record (%d of %d)", n, router.reused.Load())
	}

	want := out.want()
	if wantErr := (out == outOverload || out == outClose) && kind.direct(); viaErr != wantErr {
		t.Errorf("refusal surfaced as an error = %v, want %v", viaErr, wantErr)
	}
	if c := fired.Load(); c != 1 {
		t.Errorf("request resolved %d times, want exactly once", c)
	}
	if got.Status != want.Status {
		t.Errorf("status %v (err %v), want %v", got.Status, got.Err, want.Status)
	}
	if want.Status == StatusOK && got.Value != want.Value && kind != kindElement && kind != kindElementSame {
		t.Errorf("value %v, want %v", got.Value, want.Value)
	}
	if out == outPanic && kind != kindFlowRemote {
		if got.Err == nil || !strings.Contains(got.Err.Error(), "panic") {
			t.Errorf("err %v, want the recovered panic", got.Err)
		}
	} else if want.Err != nil && !errors.Is(got.Err, want.Err) {
		t.Errorf("err %v, want %v", got.Err, want.Err)
	}
	st := s.Stats()
	if st.Accepted != st.Done+st.Shed {
		t.Errorf("accepted %d != done %d + shed %d at quiescence", st.Accepted, st.Done, st.Shed)
	}
	if fi := st.Flow.InFlight(); fi != 0 {
		t.Errorf("%d flows still in flight: %+v", fi, st.Flow)
	}
	if kind.same() && out <= outPanic && st.Batches != 1 {
		t.Errorf("same-shard flow took %d batches, want stage b to continue a's", st.Batches)
	}
	if snap := s.Snapshot(); snap.Observe.TracedFlows != int64(snap.Observe.Recorded) {
		t.Errorf("%d submissions traced, %d traces sealed and recorded", snap.Observe.TracedFlows, snap.Observe.Recorded)
	}
	// Where exactly one job is under test, its trace names which of the
	// two shed sites ended it.
	if cause := map[outcome]string{outShedQueue: "in queue", outShedDrain: "before execution"}[out]; cause != "" &&
		(kind == kindTicket || kind == kindCallback || kind == kindFlowLocal || kind == kindFlowEntered || kind == kindFlowSame) {
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

// TestInlineFanResolvesExactlyOnce is the lifecycle contract of an
// inline fan, an unrouted Map stage run as one job that loops its
// handler: for every way that job, or one of its elements, can end, the
// flow resolves exactly once with the stage's status, the books balance
// with the fan counted as one job, its elements are counted in the
// stage's stats, and every trace is sealed once. Each case runs the fan
// plain and on a stage the compile controller instruments (which reads
// the clock after each element; only then can one element outlive the
// deadline its siblings met).
func TestInlineFanResolvesExactlyOnce(t *testing.T) {
	outcomes := []struct {
		name               string
		want               Result
		done, shed, failed int64 // the fan's three element outcomes
	}{
		{"ok", Result{Status: StatusOK}, 3, 0, 0},
		{"shed-in-queue", Result{Status: StatusShed}, 0, 3, 0},
		{"elem-deadline", Result{Status: StatusShed}, 2, 1, 0},
		{"elem-error", Result{Status: StatusFailed, Err: errBoom}, 2, 0, 1},
		{"elem-panic", Result{Status: StatusFailed}, 2, 0, 1},
		{"overload", Result{Status: StatusRejected, Err: ErrOverload}, 0, 0, 0},
		{"close", Result{Status: StatusRejected, Err: ErrClosed}, 0, 0, 0},
	}
	for _, instrumented := range []bool{false, true} {
		mode := "plain"
		if instrumented {
			mode = "instrumented"
		}
		for _, o := range outcomes {
			if o.name == "elem-deadline" && !instrumented {
				continue
			}
			t.Run(mode+"/"+o.name, func(t *testing.T) {
				t.Parallel()
				runInlineFanCase(t, o.name, instrumented, o.want, [3]int64{o.done, o.shed, o.failed})
			})
		}
	}
}

// runInlineFanCase runs one flow a -> b on a one-shard server, b an
// unrouted Map over three elements whose second element carries the
// outcome. The outcomes that act on the fan's admission hold stage a
// while they set up what b meets when a returns: a job queued in the
// ring, which b may not overtake (shed-in-queue: b queues behind it, and
// a is held past b's deadline); a full ring (overload); a closing server
// (close).
func runInlineFanCase(t *testing.T, out string, instrumented bool, want Result, elems [3]int64) {
	sys := newTestSystem(t)
	defer sys.Close()
	cfg := Config{
		Shards: 1, QueueDepth: 4, Batch: 4, InflightBatches: 1,
		Observe: ObserveConfig{SampleRate: 1, RingSize: 64},
	}
	if instrumented {
		cfg.Compile = CompileConfig{Enabled: true, Every: time.Hour}
	}
	s := New(sys, cfg)
	defer s.Close()
	hold := out == "shed-in-queue" || out == "overload" || out == "close"
	inA, leaveA := make(chan struct{}), make(chan struct{})
	unblockA := sync.OnceFunc(func() { close(leaveA) })
	defer unblockA() // before the deferred Close, even when an assertion fails
	var deadline time.Time
	if out == "shed-in-queue" || out == "elem-deadline" {
		deadline = time.Now().Add(250 * time.Millisecond)
	}
	tn, err := s.RegisterTenant(TenantConfig{Name: "t", Handler: func(*Ctx, Request) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("fan",
		Stage{Name: "a", Handler: func(*Ctx, Request) (any, error) {
			if hold {
				inA <- struct{}{}
				<-leaveA
			}
			return []any{1, 2, 3}, nil
		}},
		Stage{Name: "b", Map: true, Handler: func(_ *Ctx, req Request) (any, error) {
			if req.Payload == 2 {
				switch out {
				case "elem-deadline":
					time.Sleep(time.Until(deadline) + 20*time.Millisecond)
				case "elem-error":
					return nil, errBoom
				case "elem-panic":
					panic(errBoom)
				}
			}
			return "v", nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.stages[1].costN != nil; got != instrumented {
		t.Fatalf("stage b instrumented = %v, want %v", got, instrumented)
	}
	var fired atomic.Int32
	var got Result
	done := make(chan struct{})
	if err := tn.SubmitFlowFunc(p, Request{Key: 1, Deadline: deadline}, func(r Result) {
		if fired.Add(1) == 1 {
			got = r
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hold {
		<-inA
		ignore := func(Result) {}
		switch out {
		case "shed-in-queue":
			if err := tn.SubmitFunc(Request{Key: 1}, ignore); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Until(deadline) + 20*time.Millisecond)
		case "overload":
			for tn.SubmitFunc(Request{Key: 1}, ignore) == nil {
			}
		case "close":
			go s.Close()
			waitFor(t, "Close to begin", s.closed.Load)
		}
		unblockA()
	}
	waitFor(t, "the flow to resolve", func() bool { return fired.Load() > 0 })
	<-done
	s.Close()

	if n := fired.Load(); n != 1 {
		t.Errorf("flow resolved %d times, want exactly once", n)
	}
	if got.Status != want.Status {
		t.Errorf("flow = %+v, want status %v", got, want.Status)
	}
	switch {
	case out == "elem-panic":
		if got.Err == nil || !strings.Contains(got.Err.Error(), "panic") {
			t.Errorf("err %v, want the recovered panic", got.Err)
		}
	case want.Err != nil && !errors.Is(got.Err, want.Err):
		t.Errorf("err %v, want %v", got.Err, want.Err)
	case want.Status == StatusOK:
		if vs, ok := got.Value.([]any); !ok || len(vs) != 3 {
			t.Errorf("value %v, want the three element results", got.Value)
		}
	}
	st := s.Stats()
	if st.Accepted != st.Done+st.Shed {
		t.Errorf("accepted %d != done %d + shed %d at quiescence", st.Accepted, st.Done, st.Shed)
	}
	if fi := st.Flow.InFlight(); fi != 0 {
		t.Errorf("%d flows still in flight: %+v", fi, st.Flow)
	}
	if ss := p.StageStats()[1]; [3]int64{ss.Done, ss.Shed, ss.Failed} != elems || ss.FanOut != 3 || st.Flow.FanOut != 3 {
		t.Errorf("fan stage stats %+v (flow fan-out %d), want done/shed/failed %v of 3 elements issued", ss, st.Flow.FanOut, elems)
	}
	if snap := s.Snapshot(); snap.Observe.TracedFlows != int64(snap.Observe.Recorded) {
		t.Errorf("%d submissions traced, %d traces sealed and recorded", snap.Observe.TracedFlows, snap.Observe.Recorded)
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
