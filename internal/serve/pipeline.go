package serve

// This file is the dataflow-pipeline surface: multi-stage flows whose
// intermediate values are chained shard-to-shard. A Pipeline is
// compiled once from Stage declarations (handler + routing derivation);
// Tenant.SubmitFlow admits stage 0 (Tenant.SubmitFlowAt a later stage,
// for a flow arriving from another node) and from there every hand-off
// happens at the producing shard — where the stage's result resolves,
// the next stage is derived from it and admitted at its routed shard,
// whose batch SGT starts at that shard's locale (the hop is the
// admission). No intermediate result ever bounces through the
// submitter, so locality routing, deadline propagation, and the
// adaptivity loop keep working between stages, which is exactly what
// per-stage resubmission through Submit loses (exp V4 measures the
// difference).
//
// A hop that routes back to the shard whose batch produced it — a
// scalar stage the RemoteRouter declined, an inline fan, a fan-out
// element, the stage after a join — is a continuation: the job joins
// that running batch instead of the ring, the way a TGT runs inside the
// SGT already at its locale, and no batch SGT is spawned for it. The
// rule (batchRun.fits): the shard's ring holds no ready job, so nothing
// admitted earlier is overtaken and same-key admission order holds; the
// batch is below its drain limit; the server is open. Anything else
// takes the ordinary admission. A continuation is accounted, traced and
// shed exactly like an admitted job, and stamped with the end of the job
// that produced it.
//
// A Stage with Map set fans out: its input must be a []any and the
// handler runs once per element. When every element routes alike — the
// stage derives no Key, WorkingSet or WriteSet and no learned scatter
// plan is installed — the elements are TGTs, not jobs: the fan is one
// stage job at the flow's routed shard, and its batch SGT loops the
// handler over the elements and joins them in place (an inline fan; see
// fanOut for its rules). Otherwise each element is a job of its own,
// routed by its own derivations, and the element results count down into
// the flow's join buffer; the last element to resolve joins them at its
// own locale before the next stage runs.
//
// The plain Submit path is the degenerate one-stage pipeline: every
// tenant compiles its handler into a solo pipeline at registration
// (Tenant.Solo), and single submits execute as that pipeline's only
// stage — one admission core, not two.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// Stage declares one step of a dataflow pipeline: a handler plus the
// routing declaration that derives this stage's admission inputs from
// the previous stage's output. The derivations run at the producing
// shard when the previous value arrives — they must be pure and cheap.
type Stage struct {
	// Name labels the stage in counters and StageStats (default "s<i>").
	Name string
	// Handler executes the stage. It runs exactly like a tenant handler
	// — on a batch SGT at the admitting shard's locale, wrapped in the
	// same tenant middleware chain.
	Handler Handler
	// Map marks a fan-out stage: the previous stage's output (or the
	// flow's initial payload for stage 0) must be a []any. The handler
	// runs once per element, and the next stage receives the []any of
	// element results once the last of them resolves. A stage with a
	// Key, WorkingSet or WriteSet derivation admits and routes each
	// element independently; one without runs the whole fan as one job
	// that loops the handler (see Pipeline.fanOut). A non-slice input
	// fails the flow with StatusFailed rather than panicking.
	Map bool
	// Key derives this stage's routing key from its input value; nil
	// inherits the flow's original key, preserving (tenant, key)
	// stickiness through the pipeline.
	Key func(v any) uint64
	// WorkingSet / WriteSet derive this stage's declared object sets
	// from its input value — the routing declaration that keeps each
	// stage at its data: under Config.Data.LocalityRoute the stage
	// admits at the derived set's majority home locale. Nil derives
	// nothing; stage 0 with nil derivations inherits the submitted
	// Request's own sets.
	WorkingSet func(v any) []mem.ObjID
	WriteSet   func(v any) []mem.ObjID
}

// pipeStage is one compiled stage: middleware-composed handler, routing
// derivations, and resolved per-stage instruments. The tenant's solo
// stage leaves the counters nil — its outcomes are already the tenant
// counters, and the single-submit hot path must not pay twice.
type pipeStage struct {
	idx     int
	name    string
	handler Handler
	fanout  bool
	last    bool
	key     func(any) uint64
	reads   func(any) []mem.ObjID
	writes  func(any) []mem.ObjID

	done, shed, failed    *monitor.Counter
	fanouts               *monitor.Counter
	localExec, remoteExec *monitor.Counter
	steals                *monitor.Counter

	// Continuous-compilation instrumentation, set only for Map stages of
	// a compile-enabled server (all nil/zero otherwise): element-cost
	// estimators fed by finishJob, the width of the last fan-out, and
	// the learned scatter plan fanOut consults.
	costUS, costSq *monitor.EWMA
	costN          *monitor.Counter
	lastFan        atomic.Int64
	scatter        atomic.Pointer[scatterPlan]
}

// Pipeline is a compiled multi-stage dataflow plan for one tenant.
// Build it once with Tenant.NewPipeline and submit flows through
// Tenant.SubmitFlow; a Pipeline is immutable and safe for concurrent
// submissions.
type Pipeline struct {
	t      *Tenant
	name   string
	stages []*pipeStage
}

// Name returns the pipeline's registered name.
func (p *Pipeline) Name() string { return p.name }

// Len returns the number of stages.
func (p *Pipeline) Len() int { return len(p.stages) }

// NewPipeline compiles a pipeline for the tenant: middleware chains
// compose into every stage handler here, stage counters resolve here,
// and submissions replay the fixed plan — nothing is looked up or
// composed on the flow hot path.
func (t *Tenant) NewPipeline(name string, stages ...Stage) (*Pipeline, error) {
	if name == "" {
		return nil, errors.New("serve: pipeline name required")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("serve: pipeline %q has no stages", name)
	}
	// Names must be unique — per-stage counters resolve by name, and the
	// monitor hands the same counter to an identical name, so a
	// collision would silently merge two stages' (or two pipelines')
	// accounting.
	t.pipeMu.Lock()
	defer t.pipeMu.Unlock()
	for _, q := range t.pipes {
		if q.name == name {
			return nil, fmt.Errorf("serve: tenant %q already has a pipeline %q", t.name, name)
		}
	}
	p := &Pipeline{t: t, name: name}
	mon := t.srv.sys.Mon
	seen := make(map[string]bool, len(stages))
	for i, st := range stages {
		if st.Handler == nil {
			return nil, fmt.Errorf("serve: pipeline %q stage %d has no handler", name, i)
		}
		h := composeMiddleware(st.Handler, t.mw)
		sname := st.Name
		if sname == "" {
			sname = fmt.Sprintf("s%d", i)
		}
		if seen[sname] {
			return nil, fmt.Errorf("serve: pipeline %q has two stages named %q", name, sname)
		}
		seen[sname] = true
		prefix := "serve.pipe." + t.name + "." + name + "." + sname + "."
		ps := &pipeStage{
			idx: i, name: sname, handler: h,
			fanout: st.Map, last: i == len(stages)-1,
			key: st.Key, reads: st.WorkingSet, writes: st.WriteSet,
			done:       mon.Counter(prefix + "done"),
			shed:       mon.Counter(prefix + "shed"),
			failed:     mon.Counter(prefix + "failed"),
			fanouts:    mon.Counter(prefix + "fanout"),
			localExec:  mon.Counter(prefix + "local"),
			remoteExec: mon.Counter(prefix + "remote"),
			steals:     mon.Counter(prefix + "steals"),
		}
		// The controller only instruments Map stages with no routing
		// derivations of their own: those inherit the flow key, so the
		// whole fan-out lands on one shard — exactly the serialization a
		// learned scatter plan exists to break. A stage that derives keys
		// or working sets already declares where its elements belong.
		if t.srv.comp != nil && st.Map && st.Key == nil && st.WorkingSet == nil {
			ps.costUS = mon.EWMA(prefix+"elem_us", 0.2)
			ps.costSq = mon.EWMA(prefix+"elem_us_sq", 0.2)
			ps.costN = mon.Counter(prefix + "elems")
		}
		p.stages = append(p.stages, ps)
	}
	t.pipes = append(t.pipes, p)
	return p, nil
}

// composeMiddleware wraps h in the tenant's chain (first outermost) —
// the one composition rule shared by RegisterTenant, NewPipeline and
// the compile controller's promotions, so a tenant's pipeline stages
// and fast paths run exactly the middleware its plain handler runs.
func composeMiddleware(h Handler, mw []Middleware) Handler {
	for k := len(mw) - 1; k >= 0; k-- {
		h = mw[k](h)
	}
	return h
}

// Solo returns the tenant's degenerate one-stage pipeline — the
// tenant's composed handler as its only stage. Submit(req) and
// SubmitFlow(t.Solo(), req) execute identically; Submit just skips the
// flow record. The solo stage carries no extra counters: its outcomes
// are the tenant counters.
func (t *Tenant) Solo() *Pipeline { return t.solo }

// StageStats is the per-stage accounting of one pipeline.
type StageStats struct {
	Name string
	// Done / Shed / Failed count stage job outcomes. For Map stages
	// these count per element, whether the elements ran as jobs of their
	// own or inside one inline-fan job.
	Done, Shed, Failed int64
	// FanOut counts elements issued by a Map stage, refused ones
	// included.
	FanOut int64
	// Steals counts this stage's queued jobs the rebalancer moved.
	Steals int64
	// LocalExec / RemoteExec split executions by whether any declared
	// working-set access was served remotely — the locality signal per
	// stage.
	LocalExec, RemoteExec int64
}

// StageStats snapshots the per-stage counters (all zero for the solo
// pipeline, whose outcomes are the tenant counters).
func (p *Pipeline) StageStats() []StageStats {
	out := make([]StageStats, len(p.stages))
	for i, st := range p.stages {
		out[i].Name = st.name
		if st.done == nil {
			continue
		}
		out[i].Done = st.done.Value()
		out[i].Shed = st.shed.Value()
		out[i].Failed = st.failed.Value()
		out[i].FanOut = st.fanouts.Value()
		out[i].Steals = st.steals.Value()
		out[i].LocalExec = st.localExec.Value()
		out[i].RemoteExec = st.remoteExec.Value()
	}
	return out
}

// flowState is one in-flight flow: the pipeline-scoped routing key,
// deadline, and priority every stage inherits, the join of the Map
// stage in flight, and the done-exactly-once terminal guard.
//
// Flow states are pooled. Reclamation is refcounted: the count starts
// at 1 (the terminal reference, dropped by terminate after the done
// sink) and each live stage job holds one more (taken by construct,
// dropped at the end of finishJob / refuse). The state recycles only
// when both are gone, so no job can touch a reused flow. A RemoteRouter
// holds no reference: it holds a Flow handle, which names the record's
// generation, and a recycle bumps the generation.
//
// A flow is also the sink of its own scalar stage jobs (see resolve),
// and, through joinSink, of its fan-out elements.
type flowState struct {
	p        *Pipeline
	key      uint64
	deadline clock.Nanos // clock.Never for none
	priority int
	enqueued clock.Nanos
	done     sink // the flow's terminal Result goes here: a ticket, a callback, or nothing
	// state packs the record's generation (high bits) with the flow's
	// finished bit (bit 0): the terminal guard is one compare-and-swap
	// on the generation the caller names.
	state atomic.Uint64
	refs  atomic.Int32
	// The join of the Map stage in flight: fan is the stage, pending
	// counts its unresolved elements, and elems holds their results by
	// element index. elems keeps its capacity across generations.
	fan     *pipeStage
	pending atomic.Int32
	elems   []Result
	// router decides the flow's cross-node hand-offs (nil: every stage
	// stays in this process); see SubmitFlowAt.
	router RemoteRouter
	// ft is the flow's sampled trace context (nil when unsampled);
	// every stage job of the flow shares it.
	ft *FlowTrace
}

var flowPool sync.Pool

func newFlowState() *flowState {
	fl, _ := flowPool.Get().(*flowState)
	if fl == nil {
		fl = &flowState{}
	}
	fl.refs.Store(1) // the terminal reference
	return fl
}

func (fl *flowState) ref() { fl.refs.Add(1) }

// unref drops one reference; the last one zeroes the state field by
// field (the atomics forbid a struct assignment) and recycles it. A nil
// flow (a plain submission's job) has nothing to drop.
func (fl *flowState) unref() {
	if fl == nil || fl.refs.Add(-1) != 0 {
		return
	}
	fl.p = nil
	fl.key = 0
	fl.deadline = 0
	fl.priority = 0
	fl.enqueued = 0
	fl.done = nil
	fl.fan = nil
	fl.pending.Store(0)
	clear(fl.elems)
	fl.elems = fl.elems[:0]
	fl.router = nil
	fl.ft = nil
	// Last: a stale handle's Finish now fails its compare-and-swap.
	fl.state.Store((fl.state.Load()>>1 + 1) << 1)
	flowPool.Put(fl)
}

// Flow is a handle on one in-flight flow, the one a RemoteRouter gets
// when it takes the rest of the flow. Flow records are pooled; the
// handle names the record's generation, so it stays safe to hold after
// the flow has ended and its record has been reused.
type Flow struct {
	fl  *flowState
	gen uint64
}

// handle returns the flow's handle at its current generation.
func (fl *flowState) handle() Flow { return Flow{fl, fl.state.Load() >> 1} }

// SubmitFlow admits one flow through the pipeline and returns a ticket
// that resolves with the final stage's result — or with the terminal
// result of a flow that sheds or fails mid-pipeline, whose later stages
// never run. A refused scalar stage 0 returns ErrOverload/ErrClosed
// like Submit and the flow never starts; refusals past stage 0 — and
// element refusals of a Map-first stage, whose partially admitted
// fan-out cannot be unwound — surface as a StatusRejected final result
// instead.
func (t *Tenant) SubmitFlow(p *Pipeline, req Request) (*Ticket, error) {
	tk := &Ticket{}
	if err := t.submitFlow(p, 0, req, nil, tk); err != nil {
		return nil, err
	}
	return tk, nil
}

// SubmitFlowFunc is SubmitFlow with a callback instead of a ticket:
// done is invoked exactly once with the flow's terminal result.
func (t *Tenant) SubmitFlowFunc(p *Pipeline, req Request, done func(Result)) error {
	return t.submitFlow(p, 0, req, nil, callbackSink(done))
}

// SubmitFlowAt admits a flow that enters p at stage from, with
// req.Payload as that stage's input — a flow begun elsewhere, such as
// one a stage parcel carries to this node. It admits stage from exactly
// as SubmitFlow admits stage 0 (refusals likewise), and serve's own
// chaining runs the stages after it. rr, when non-nil, is the flow's
// RemoteRouter: it is consulted at a scalar entry stage and at every
// later scalar stage boundary, may ship the rest of the flow to another
// node, and hears the terminal result. done, when non-nil, is invoked
// exactly once with the terminal result, after rr.
func (t *Tenant) SubmitFlowAt(p *Pipeline, from int, req Request, rr RemoteRouter, done func(Result)) error {
	var sk sink
	if done != nil {
		sk = callbackSink(done)
	}
	return t.submitFlow(p, from, req, rr, sk)
}

// submitFlow creates the flow state and admits stage from (one scalar
// job or one fan-out) through the same construct/admit core plain
// submits use.
func (t *Tenant) submitFlow(p *Pipeline, from int, req Request, rr RemoteRouter, done sink) error {
	if p == nil || p.t != t {
		return errors.New("serve: pipeline was not built by this tenant (use Tenant.NewPipeline)")
	}
	if from < 0 || from >= len(p.stages) {
		return fmt.Errorf("serve: pipeline %q has no stage %d", p.name, from)
	}
	s := t.srv
	if s.closed.Load() {
		// Checked before the flow exists: a Map-first fan-out refused
		// element by element could not be unwound into an error.
		return ErrClosed
	}
	st := p.stages[from]
	if _, sliced := req.Payload.([]any); st.fanout && !sliced {
		return fmt.Errorf("serve: pipeline %q stage %q fans out over []any, payload is %T",
			p.name, st.name, req.Payload)
	}
	now := clock.Now()
	fl := newFlowState()
	fl.p, fl.key, fl.deadline, fl.priority = p, req.Key, clock.Of(req.Deadline), req.Priority
	fl.enqueued, fl.done, fl.router = now, done, rr
	fl.ft = s.obs.sample(t, p, req.Key)
	// Count the flow before it can possibly complete.
	s.flowSub.Inc()
	if st.fanout {
		p.fanOut(fl, "entry", st, req.Payload, &req, nil)
		return nil
	}
	if p.forward(fl, "entry", st, req.Payload) {
		return nil
	}
	sreq := p.stageRequest(fl, st, req.Payload, &req)
	if err := s.submit(t, st, fl, sreq, now, nil, fl, int32(from), false); err != nil {
		// A refused scalar entry stage means the flow never existed: the
		// count rolls back and the terminal reference goes (refuse
		// already dropped the job's and sealed the trace).
		s.flowSub.Add(-1)
		fl.unref()
		return err
	}
	return nil
}

// stageRequest derives one stage's admission request from its input
// value, inheriting the flow-scoped key, deadline, and priority. from is
// the submitted Request at stage 0 — which has no previous output, so
// the request's own set declarations stand in wherever the stage
// derives nothing — and nil for every later stage.
func (p *Pipeline) stageRequest(fl *flowState, st *pipeStage, v any, from *Request) Request {
	req := Request{Key: fl.key, Payload: v, Deadline: fl.deadline.Time(), Priority: fl.priority}
	if from != nil {
		req.WorkingSet, req.WriteSet = from.WorkingSet, from.WriteSet
	}
	if st.key != nil {
		req.Key = st.key(v)
	}
	if st.reads != nil {
		req.WorkingSet = st.reads(v)
	}
	if st.writes != nil {
		req.WriteSet = st.writes(v)
	}
	return req
}

// count folds one finished job into its stage's outcome counters —
// called by finishJob for every job, scalar or fan-out element, and for
// every element of an inline fan's job (Map stages therefore count per
// element). The tenant's solo stage has no counters: its outcomes are
// the tenant counters.
func (st *pipeStage) count(r Result) {
	if st.done == nil {
		return
	}
	switch r.Status {
	case StatusOK:
		st.done.Inc()
		// Continuous compilation: an element's service time is the
		// chunk-cost observation the scatter planner learns from (no-op
		// unless the controller instrumented the stage).
		st.observeElem(r)
	case StatusShed:
		st.shed.Inc()
	default:
		st.failed.Inc()
	}
}

// resolve is where stage idx's Result lands — from finishJob for a
// scalar stage job (the flow is its sink; this runs where the job
// resolved: the executing batch br, which also sheds), from joinSink
// for a Map stage. A non-OK result, or the last stage's, ends the flow;
// anything else chains to the next stage.
func (fl *flowState) resolve(idx int32, r Result, br *batchRun) {
	st := fl.p.stages[idx]
	if r.Status != StatusOK || st.last {
		fl.terminate(r)
		return
	}
	fl.p.chain(fl, st, r, br)
}

// RemoteRouter is the cluster layer's hook into flow chaining: one is
// passed per flow (SubmitFlowAt), so it already knows the flow's tenant
// and pipeline. ForwardStage is consulted at a scalar entry stage and at
// every scalar stage boundary with the flow's routing inputs; at a
// boundary it runs at the producing shard, where the previous stage
// just resolved. Returning false leaves the stage in-process. Returning
// true means the router shipped the remainder of the flow to another
// node; it ends the flow on this node later through fl.Finish — when
// its completion parcel arrives, or at once when the result goes
// elsewhere. Ended hears every terminal result of the flow on this
// node, before its done sink.
type RemoteRouter interface {
	ForwardStage(next int, v any, key uint64, deadline clock.Nanos, priority int, fl Flow) bool
	Ended(r Result)
}

// forward offers stage next of fl, with input v, to the flow's
// RemoteRouter and reports whether the router took the rest of the
// flow; the hand-off is recorded as a remote-hop trace event. The
// router gets a handle, not a reference: the flow may end, and its
// record recycle, before ForwardStage returns, so nothing of it is read
// after the call.
func (p *Pipeline) forward(fl *flowState, from string, next *pipeStage, v any) bool {
	rr, ft := fl.router, fl.ft
	if rr == nil || !rr.ForwardStage(next.idx, v, fl.key, fl.deadline, fl.priority, fl.handle()) {
		return false
	}
	if ft != nil {
		ft.add(trace.KindRemoteHop, 0, 0, spanArg(next.idx, 0), fmt.Sprintf("%s -> %s (remote)", from, next.name))
	}
	return true
}

// chain advances an OK stage result to the next stage. It runs at the
// producing shard, in the batch br where the result resolved (nil when
// no batch is executing there), and admits the next stage straight from
// here — the submitter never sees the intermediate value. A flow with a
// RemoteRouter may continue on another machine (forward). A stage that
// stays in-process is routed, and joins br as a continuation when it
// lands on br's own shard and fits (batchRun.fits); otherwise the
// admission starts a batch SGT at the routed shard's locale.
func (p *Pipeline) chain(fl *flowState, st *pipeStage, r Result, br *batchRun) {
	next := p.stages[st.idx+1]
	if next.fanout {
		if _, ok := r.Value.([]any); !ok {
			fl.terminate(Result{Status: StatusFailed,
				Err: fmt.Errorf("serve: pipeline %q stage %q fans out over []any, stage %q produced %T",
					p.name, next.name, st.name, r.Value)})
			return
		}
		p.fanOut(fl, st.name, next, r.Value, nil, br)
		return
	}
	if p.forward(fl, st.name, next, r.Value) {
		return
	}
	p.hop(fl, st.name, next, r.Value, nil, fl, int32(next.idx), br)
}

// hop admits stage st of flow fl, with input v (inherit as in
// stageRequest), as one job at the shard it routes to, with sink sk and
// index idx (see admitStage); a traced flow records the hop from stage
// from, attributed to its destination: the shard (and locale) the routed
// value is admitted at.
func (p *Pipeline) hop(fl *flowState, from string, st *pipeStage, v any, inherit *Request, sk sink, idx int32, br *batchRun) {
	req := p.stageRequest(fl, st, v, inherit)
	sh := p.t.srv.routeShard(p.t, &req)
	if fl.ft != nil {
		fl.ft.add(trace.KindStageHop, sh.id, sh.locale, spanArg(st.idx, 0), fmt.Sprintf("%s -> %s", from, st.name))
	}
	p.admitStage(fl, st, sh, req, sk, idx, br)
}

// admitStage admits one stage job of flow fl, routed to sh, with sink
// sk: into the running batch br as a continuation when it fits there,
// stamped with br's last clock read (the end of the job that produced
// it, so its wait is never negative); through sh's ring otherwise. A
// refusal past stage 0 is delivered to the sink, ending the flow (or
// counting an element down) with StatusRejected: earlier stages already
// ran, so the uniform-Result surface is the only honest one.
func (p *Pipeline) admitStage(fl *flowState, st *pipeStage, sh *shard, req Request, sk sink, idx int32, br *batchRun) {
	s := p.t.srv
	if br.fits(sh) {
		_, j := s.construct(p.t, st, fl, req, br.now, sh, sk, idx)
		br.take(j)
		return
	}
	_ = s.submit(p.t, st, fl, req, clock.Now(), sh, sk, idx, true)
}

// fanOut issues Map stage st over its input in, a []any, from the
// producing shard (in batch br, nil outside one), where stage from
// produced it. inherit is the submitted Request for a Map-first stage 0
// and nil for every later stage (see stageRequest).
//
// A stage whose elements all route alike — no Key, WorkingSet or
// WriteSet derivation, no learned scatter plan — is an inline fan: one
// stage job, admitted at the flow's routed shard with in as its payload
// (no copy, no re-boxing), that joins br as a continuation when it fits
// (see admitStage) and takes the ring as a single job otherwise.
// Server.execute runs it as a loop (batchRun.handle), and its rules are:
//   - each element is checked against the job's deadline at br.now and
//     shed unrun if past it; br.now is the job's start, advanced by a
//     clock read after each element only on a stage the compile
//     controller instruments;
//   - an error or panic fails only its element: each handler call has
//     its own recover;
//   - the job shed in the queue, or refused at admission, ends the stage
//     with that status;
//   - the inherited working set is staged and read, and the write set
//     committed, once per job;
//   - Stats counts the job (Accepted, Done, Shed); FlowStats.FanOut and
//     StageStats count its elements.
//
// Any other Map stage admits one job per element, each routed by its own
// derived declarations. An element routed to br's own shard joins br as
// a continuation while it fits; the rest go through their shards' rings.
// Each element's sink is the flow's join: the element that counts the
// flow's pending elements down to zero joins the stage at its own
// locale.
func (p *Pipeline) fanOut(fl *flowState, from string, st *pipeStage, in any, inherit *Request, br *batchRun) {
	s := p.t.srv
	parts := in.([]any)
	if len(parts) == 0 {
		fl.resolve(int32(st.idx), Result{Status: StatusOK, Value: []any{}}, br)
		return
	}
	// The previous Map stage's join (if any) has copied its values out,
	// so the buffer is free to reuse.
	fl.fan = st
	if cap(fl.elems) < len(parts) {
		fl.elems = make([]Result, len(parts))
	}
	fl.elems = fl.elems[:len(parts)]
	st.fanouts.Add(int64(len(parts)))
	// Continuous compilation: record the fan width for the planner and,
	// when a learned plan is installed, scatter the elements across
	// shards by its sched.Factory instead of the inherited-key route
	// (which lands the whole fan-out on one shard). An element that
	// declares a working set keeps its locality route — data placement
	// outranks load spreading.
	if st.costN != nil {
		st.lastFan.Store(int64(len(parts)))
	}
	sp := st.scatter.Load()
	if sp == nil && st.key == nil && st.reads == nil && st.writes == nil {
		// The elements route alike: one inline-fan job.
		p.hop(fl, from, st, in, inherit, joinSink{fl}, inlineFan, br)
		return
	}
	fl.pending.Store(int32(len(parts)))
	// Loop guard: the last element can resolve (and the join finish the
	// flow) while this loop is still routing later rejections — hold a
	// reference so fl cannot recycle under the loop's feet.
	fl.ref()
	defer fl.unref()
	var targets *[]int
	if sp != nil {
		targets = scatterTargets(sp, len(parts), len(s.shards))
		s.comp.scattered.Add(int64(len(parts)))
		defer targetPool.Put(targets)
	}
	for i, part := range parts {
		req := p.stageRequest(fl, st, part, inherit)
		var sh *shard
		if targets != nil && len(req.WorkingSet) == 0 {
			sh = s.shards[(*targets)[i]]
		} else {
			sh = s.routeShard(p.t, &req)
		}
		if fl.ft != nil {
			// Per-element hop: each fan-out element routes independently,
			// so each records its own destination shard and locale.
			fl.ft.add(trace.KindStageHop, sh.id, sh.locale, spanArg(st.idx, int32(i)+1),
				fmt.Sprintf("%s fan-out [%d/%d]", st.name, i, len(parts)))
		}
		// The flow's join is every element's sink, so the fan-out admits
		// N elements with zero closures; a refused element counts down
		// as StatusRejected through the same sink.
		p.admitStage(fl, st, sh, req, joinSink{fl}, int32(i), br)
	}
}

// inlineFan is the Job.idx of an inline fan's one job (see fanOut).
const inlineFan int32 = -1

// joinSink is the sink of a fan-out's jobs. An element job stores its
// result at its index and, for the element that resolves last, joins
// the stage; the countdown's atomic add orders every element's store
// before the join reads the buffer. An inline fan's job (idx inlineFan)
// already carries the stage's result: joined in place when it ran, or
// the status it was shed or refused with.
type joinSink struct{ fl *flowState }

func (js joinSink) resolve(idx int32, r Result, br *batchRun) {
	fl := js.fl
	if idx == inlineFan {
		fl.resolve(int32(fl.fan.idx), r, br)
		return
	}
	fl.elems[idx] = r
	if fl.pending.Add(-1) == 0 {
		fl.resolve(int32(fl.fan.idx), fl.joined(), br)
	}
}

// joined fans the Map stage's element results back in. The first
// element in input order that failed with an error fails the stage with
// that error; otherwise the first non-OK element decides the stage's
// fate, and an all-OK set advances — exactly like a scalar stage's
// result — as a fresh []any of element values (the buffer is reused by
// the next Map stage).
func (fl *flowState) joined() Result {
	rs := fl.elems
	for _, r := range rs {
		if r.Status == StatusFailed && r.Err != nil {
			return Result{Status: StatusFailed, Err: r.Err}
		}
	}
	vals := make([]any, len(rs))
	var wait time.Duration
	for i, r := range rs {
		if r.Status != StatusOK {
			return r
		}
		vals[i] = r.Value
		if r.Wait > wait {
			wait = r.Wait
		}
	}
	return Result{Status: StatusOK, Value: vals, Wait: wait}
}

// terminate ends the flow from this node, which holds a reference on
// it: at its current generation.
func (fl *flowState) terminate(r Result) { fl.handle().Finish(r) }

// Finish is the one flow terminal: local success, a shed or failure
// mid-pipeline, a refusal past stage 0, and a remote completion parcel
// all end here, exactly once — the finished bit makes a racing local
// shed, and a late or duplicate completion, a no-op, and so does the
// generation for a handle whose record has since been recycled. The
// terminal result is stamped with the flow's priority and
// admission-to-completion Total, then the flow's router and done sink
// hear it.
func (f Flow) Finish(r Result) {
	fl := f.fl
	if !fl.state.CompareAndSwap(f.gen<<1, f.gen<<1|1) {
		return
	}
	s := fl.p.t.srv
	r.Priority = fl.priority
	r.Total = time.Duration(clock.Now() - fl.enqueued)
	switch r.Status {
	case StatusOK:
		s.flowDone.Inc()
	case StatusShed:
		s.flowShed.Inc()
	case StatusRejected:
		s.flowRej.Inc()
	default:
		s.flowFail.Inc()
	}
	s.obs.finishFlow(fl.ft, r.Status)
	if fl.router != nil {
		fl.router.Ended(r)
	}
	if fl.done != nil {
		fl.done.resolve(0, r, nil)
	}
	fl.unref() // terminal reference
}
