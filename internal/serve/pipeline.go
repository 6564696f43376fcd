package serve

// This file is the dataflow-pipeline surface: multi-stage flows whose
// intermediate values are futures chained shard-to-shard. A Pipeline is
// compiled once from Stage declarations (handler + routing derivation);
// Tenant.SubmitFlow admits stage 0 (Tenant.SubmitFlowAt a later stage,
// for a flow arriving from another node) and from there every hand-off
// happens at the producing shard — the stage's result resolves a
// future.Future buffered there, and the continuation ships the value to
// the next stage's routed locale with ThenSpawn. No intermediate result
// ever bounces through the submitter, so locality routing, deadline
// propagation, and the adaptivity loop keep working between stages,
// which is exactly what per-stage resubmission through Submit loses
// (exp V4 measures the difference).
//
// A Stage with Map set fans out: its input must be a []any, the handler
// runs once per element (each element routed by its own derived working
// set), and future.All fans the element results back in at the
// last-resolved element's locale before the next stage runs.
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

	"repro/internal/core"
	"repro/internal/future"
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
	// same server-wide and per-tenant middleware chains.
	Handler Handler
	// Map marks a fan-out stage: the previous stage's output (or the
	// flow's initial payload for stage 0) must be a []any. The handler
	// runs once per element, each element admitted and routed
	// independently, and the next stage receives the []any of element
	// results once future.All fans them back in. A non-slice input fails
	// the flow with StatusFailed rather than panicking.
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
		h := composeMiddleware(st.Handler, t.mw, t.srv.cfg.Middleware)
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

// composeMiddleware wraps h in the per-tenant then the server-wide
// chains (server outermost) — the one composition rule shared by
// RegisterTenant and NewPipeline, so a tenant's pipeline stages run
// exactly the middleware its plain handler runs.
func composeMiddleware(h Handler, tenantMW, serverMW []Middleware) Handler {
	for k := len(tenantMW) - 1; k >= 0; k-- {
		h = tenantMW[k](h)
	}
	for k := len(serverMW) - 1; k >= 0; k-- {
		h = serverMW[k](h)
	}
	return h
}

// Solo returns the tenant's degenerate one-stage pipeline — the
// tenant's composed handler as its only stage. Submit(req) and
// SubmitFlow(t.Solo(), req) execute identically; Submit just skips the
// per-flow future allocations. The solo stage carries no extra
// counters: its outcomes are the tenant counters.
func (t *Tenant) Solo() *Pipeline { return t.solo }

// StageStats is the per-stage accounting of one pipeline.
type StageStats struct {
	Name string
	// Done / Shed / Failed count stage job outcomes. For Map stages
	// these count per element.
	Done, Shed, Failed int64
	// FanOut counts elements issued by a Map stage.
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
// deadline, and priority every stage inherits, the per-stage result
// futures, and the done-exactly-once terminal guard.
//
// Flow states are pooled. Reclamation is refcounted: the count starts
// at 1 (the terminal reference, dropped by terminate after the done
// sink) and each live stage job holds one more (taken by construct,
// dropped at the end of finishJob / refuse). The state recycles only
// when both are gone, so a straggling shed element of an already-failed
// fan-out can never touch a reused flow. The futs slice is NOT pooled —
// it escapes to the submitter (Ticket.StageFuture).
//
// A flow is also the sink of its own scalar stage jobs (see resolve).
type flowState struct {
	p        *Pipeline
	key      uint64
	deadline time.Time
	priority int
	enqueued time.Time
	done     sink // the flow's terminal Result goes here: a ticket or a callback
	finished atomic.Bool
	refs     atomic.Int32
	futs     []*future.Future[Result]
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
	fl.deadline = time.Time{}
	fl.priority = 0
	fl.enqueued = time.Time{}
	fl.done = nil
	fl.finished.Store(false)
	fl.futs = nil
	fl.router = nil
	fl.ft = nil
	flowPool.Put(fl)
}

// stageHop carries one scalar stage hand-off to its destination locale:
// the pooled argument of the detached hop SGT, so advancing a flow
// spawns without a closure or activation allocation.
type stageHop struct {
	fl  *flowState
	st  *pipeStage
	sh  *shard
	req Request
}

var hopPool sync.Pool

// runStageHop is the detached hop SGT's main. The flow cannot have
// finished before the hop lands (a scalar flow's only live path is this
// one, and the terminal reference is still held), so fl is valid here.
func runStageHop(_ *core.SGT, a any) {
	h := a.(*stageHop)
	fl, st, sh, req := h.fl, h.st, h.sh, h.req
	*h = stageHop{}
	hopPool.Put(h)
	fl.p.submitStage(fl, st, sh, req)
}

// SubmitFlow admits one flow through the pipeline and returns a ticket
// that resolves with the final stage's result. The ticket's stage
// futures expose every intermediate result (Ticket.StageFuture); a flow
// that sheds or fails mid-pipeline resolves all downstream futures with
// the terminal result. A refused scalar stage 0 returns
// ErrOverload/ErrClosed like Submit and the flow never starts; refusals
// past stage 0 — and element refusals of a Map-first stage, whose
// partially admitted fan-out cannot be unwound — surface as a
// StatusRejected final result instead.
func (t *Tenant) SubmitFlow(p *Pipeline, req Request) (*Ticket, error) {
	tk := &Ticket{}
	futs, err := t.submitFlow(p, 0, req, nil, tk, true)
	if err != nil {
		return nil, err
	}
	tk.stages = futs
	return tk, nil
}

// SubmitFlowFunc is SubmitFlow with a callback instead of a ticket:
// done is invoked exactly once with the flow's terminal result. It
// returns the per-stage result futures.
func (t *Tenant) SubmitFlowFunc(p *Pipeline, req Request, done func(Result)) ([]*future.Future[Result], error) {
	return t.submitFlow(p, 0, req, nil, callbackSink(done), true)
}

// SubmitFlowAt admits a flow that enters p at stage from, with
// req.Payload as that stage's input — a flow begun elsewhere, such as
// one a stage parcel carries to this node. It admits stage from exactly
// as SubmitFlow admits stage 0 (refusals likewise), and serve's own
// chaining runs the stages after it. rr, when non-nil, is the flow's
// RemoteRouter: it is consulted at every later scalar stage boundary
// and may ship the rest of the flow to another node. done is invoked
// exactly once with the terminal result; no stage futures are made, as
// nobody could read them.
func (t *Tenant) SubmitFlowAt(p *Pipeline, from int, req Request, rr RemoteRouter, done func(Result)) error {
	_, err := t.submitFlow(p, from, req, rr, callbackSink(done), false)
	return err
}

// submitFlow creates the flow state — with per-stage result futures
// when the caller returns them — and admits stage from (one scalar job
// or one fan-out) through the same construct/admit core plain submits
// use.
func (t *Tenant) submitFlow(p *Pipeline, from int, req Request, rr RemoteRouter, done sink,
	futures bool) ([]*future.Future[Result], error) {
	if p == nil || p.t != t {
		return nil, errors.New("serve: pipeline was not built by this tenant (use Tenant.NewPipeline)")
	}
	if from < 0 || from >= len(p.stages) {
		return nil, fmt.Errorf("serve: pipeline %q has no stage %d", p.name, from)
	}
	s := t.srv
	if s.closed.Load() {
		// Checked before the flow exists: a Map-first fan-out refused
		// element by element could not be unwound into an error.
		return nil, ErrClosed
	}
	st := p.stages[from]
	parts, sliced := req.Payload.([]any)
	if st.fanout && !sliced {
		return nil, fmt.Errorf("serve: pipeline %q stage %q fans out over []any, payload is %T",
			p.name, st.name, req.Payload)
	}
	now := time.Now()
	s.defaultDeadline(&req, now)
	fl := newFlowState()
	fl.p, fl.key, fl.deadline, fl.priority = p, req.Key, req.Deadline, req.Priority
	fl.enqueued, fl.done, fl.router = now, done, rr
	fl.ft = s.obs.sample(t, p, req.Key)
	// The futures (and their slice) escape to the caller, so they are
	// allocated fresh per flow; everything else on this path recycles.
	// futs is captured locally because the flow may complete — and fl
	// recycle — before this function returns.
	var futs []*future.Future[Result]
	if futures {
		futs = make([]*future.Future[Result], len(p.stages))
		for i := range futs {
			futs[i] = future.Pending[Result](s.sys.RT)
		}
	}
	fl.futs = futs
	// Count the flow before it can possibly complete.
	s.flowSub.Inc()
	if st.fanout {
		p.fanOut(fl, st, parts, &req)
		return futs, nil
	}
	sreq := p.stageRequest(fl, st, req.Payload, &req)
	if err := s.submit(t, st, fl, sreq, now, nil, fl, int32(from), false); err != nil {
		// A refused scalar entry stage means the flow never existed: the
		// count rolls back and the terminal reference goes (refuse
		// already dropped the job's and sealed the trace).
		s.flowSub.Add(-1)
		fl.unref()
		return nil, err
	}
	return futs, nil
}

// stageRequest derives one stage's admission request from its input
// value, inheriting the flow-scoped key, deadline, and priority. from is
// the submitted Request at stage 0 — which has no previous output, so
// the request's own set declarations stand in wherever the stage
// derives nothing — and nil for every later stage.
func (p *Pipeline) stageRequest(fl *flowState, st *pipeStage, v any, from *Request) Request {
	req := Request{Key: fl.key, Payload: v, Deadline: fl.deadline, Priority: fl.priority}
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
// called by finishJob for every job, scalar or fan-out element (Map
// stages therefore count per element). The tenant's solo stage has no
// counters: its outcomes are the tenant counters.
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
// resolved: the executing SGT, which also sheds), from join
// for a Map stage. A non-OK result, or the last stage's, ends the flow;
// anything else chains to the next stage.
func (fl *flowState) resolve(idx int32, r Result) {
	st := fl.p.stages[idx]
	if r.Status != StatusOK || st.last {
		fl.terminate(st.idx, r)
		return
	}
	fl.p.chain(fl, st, r)
}

// RemoteRouter is the cluster layer's hook into flow chaining: one is
// passed per flow (SubmitFlowAt), so it already knows the flow's tenant
// and pipeline. ForwardStage is consulted at every scalar stage
// boundary with the flow's routing inputs; it runs at the producing
// shard, where the previous stage just resolved. Returning false leaves
// the hop in-process. Returning true means the router shipped the
// remainder of the flow to another node; it must then invoke finish
// exactly once — when its completion parcel arrives, or at once when
// the result goes elsewhere — with the flow's terminal Result, which
// resolves every remaining stage future and the flow's done callback on
// this node.
type RemoteRouter interface {
	ForwardStage(next int, v any, key uint64, deadline time.Time, priority int, finish func(Result)) bool
}

// chain advances an OK stage result to the next stage. It runs at the
// producing shard: the stage future resolves here, and the buffered
// continuation ships the value to the next stage's routed locale with
// ThenSpawn — the submitter never sees the intermediate value. A flow
// with a RemoteRouter may continue on another machine: the router takes
// the flow, and the hand-off is recorded as a remote-hop trace event.
func (p *Pipeline) chain(fl *flowState, st *pipeStage, r Result) {
	s := p.t.srv
	next := p.stages[st.idx+1]
	// Resolve the producing stage before routing onward: a remote
	// hand-off's completion parcel may race this shard, and the remote
	// finisher only touches futures from next onward.
	if fl.futs != nil {
		fl.futs[st.idx].Resolve(r, nil)
	}
	if next.fanout {
		parts, ok := r.Value.([]any)
		if !ok {
			fl.terminate(next.idx, Result{Status: StatusFailed,
				Err: fmt.Errorf("serve: pipeline %q stage %q fans out over []any, stage %q produced %T",
					p.name, next.name, st.name, r.Value)})
			return
		}
		p.fanOut(fl, next, parts, nil)
		return
	}
	if rr := fl.router; rr != nil {
		// Pin the flow before handing its finisher to the router: a
		// remote completion parcel can arrive late, or twice (retry), so
		// the closure must keep the state out of the pool forever — a
		// flow that went remote is reclaimed by the GC, never recycled,
		// and a duplicate finish lands on the finished guard, not on a
		// reused record. The parcel's terminal result resolves every
		// future from the hand-off stage onward.
		fl.ref()
		if rr.ForwardStage(next.idx, r.Value, fl.key, fl.deadline, fl.priority,
			func(final Result) { fl.terminate(next.idx, final) }) {
			if fl.ft != nil {
				fl.ft.add(trace.KindRemoteHop, 0, 0, spanArg(next.idx, 0),
					fmt.Sprintf("%s -> %s (remote)", st.name, next.name))
			}
			return
		}
		fl.unref() // declined: the router holds no finisher
	}
	req := p.stageRequest(fl, next, r.Value, nil)
	sh := s.routeShard(p.t, &req)
	if fl.ft != nil {
		// The hop is attributed to its destination: the shard (and
		// locale) the routed value is about to ship to.
		fl.ft.add(trace.KindStageHop, sh.id, sh.locale, spanArg(next.idx, 0),
			fmt.Sprintf("%s -> %s", st.name, next.name))
	}
	// The value just resolved right here, so there is nothing to wait
	// on: ship the hand-off straight to the next stage's locale as a
	// detached SGT with a pooled argument — no continuation buffering,
	// no closure, no activation allocation. The terminal reference keeps
	// fl alive across the hop (no other path can finish a scalar flow
	// while its only hand-off is in flight).
	h, _ := hopPool.Get().(*stageHop)
	if h == nil {
		h = &stageHop{}
	}
	h.fl, h.st, h.sh, h.req = fl, next, sh, req
	s.sys.RT.GoAtDetached(int(sh.locale), 0, runStageHop, h)
}

// submitStage admits one scalar stage job at the shard its hop was
// routed to. An admission refusal past stage 0 is delivered to the sink,
// ending the flow with StatusRejected: earlier stages already ran, so
// the uniform-Result surface is the only honest one.
func (p *Pipeline) submitStage(fl *flowState, st *pipeStage, sh *shard, req Request) {
	_ = p.t.srv.submit(p.t, st, fl, req, time.Now(), sh, fl, int32(st.idx), true)
}

// fanOut admits one stage job per element of a Map stage's input, all
// issued from the producing shard, each routed by its own derived
// declarations. future.All fans the element futures back in: the join
// continuation runs at the last-resolved element's locale. inherit is
// the submitted Request for a Map-first stage 0 and nil for every later
// stage (see stageRequest).
func (p *Pipeline) fanOut(fl *flowState, st *pipeStage, parts []any, inherit *Request) {
	s := p.t.srv
	if len(parts) == 0 {
		fl.resolve(int32(st.idx), Result{Status: StatusOK, Value: []any{}})
		return
	}
	rt := s.sys.RT
	elems := make([]*future.Future[Result], len(parts))
	for i := range parts {
		elems[i] = future.Pending[Result](rt)
	}
	// Loop guard: the last element can resolve (and the join finish the
	// flow) while this loop is still routing later rejections — hold a
	// reference so fl cannot recycle under the loop's feet.
	fl.ref()
	defer fl.unref()
	future.All(elems...).ThenErr(func(rs []Result, err error) { p.join(fl, st, rs, err) })
	// Continuous compilation: record the fan width for the planner and,
	// when a learned plan is installed, scatter the elements across
	// shards by its sched.Factory instead of the inherited-key route
	// (which lands the whole fan-out on one shard). An element that
	// declares a working set keeps its locality route — data placement
	// outranks load spreading.
	if st.costN != nil {
		st.lastFan.Store(int64(len(parts)))
	}
	var targets *[]int
	if sp := st.scatter.Load(); sp != nil {
		targets = scatterTargets(sp, len(parts), len(s.shards))
		s.comp.scattered.Add(int64(len(parts)))
		defer targetPool.Put(targets)
	}
	now := time.Now()
	for i, part := range parts {
		req := p.stageRequest(fl, st, part, inherit)
		var sh *shard
		if targets != nil && len(req.WorkingSet) == 0 {
			sh = s.shards[(*targets)[i]]
		}
		// The element's future is the job's sink, so the fan-out admits N
		// elements with zero closures; a refused element resolves its
		// future StatusRejected through the same sink.
		sh, j := s.construct(p.t, st, fl, req, now, sh, elemSink{elems[i]}, int32(i))
		if fl.ft != nil {
			// Per-element hop: each fan-out element routes independently,
			// so each records its own destination shard and locale.
			fl.ft.add(trace.KindStageHop, sh.id, sh.locale, j.spanArg(),
				fmt.Sprintf("%s fan-out [%d/%d]", st.name, i, len(parts)))
		}
		s.admit(sh, []*Job{j}, true)
	}
}

// join fans a Map stage's element results back in. A future-level error
// (a failed element) fails the flow; otherwise the first non-OK element
// in input order decides the flow's fate, and an all-OK set advances —
// exactly like a scalar stage's result — as the []any of element values.
func (p *Pipeline) join(fl *flowState, st *pipeStage, rs []Result, err error) {
	if err != nil {
		fl.resolve(int32(st.idx), Result{Status: StatusFailed, Err: err})
		return
	}
	vals := make([]any, len(rs))
	var wait time.Duration
	for i, r := range rs {
		if r.Status != StatusOK {
			fl.resolve(int32(st.idx), r)
			return
		}
		vals[i] = r.Value
		if r.Wait > wait {
			wait = r.Wait
		}
	}
	fl.resolve(int32(st.idx), Result{Status: StatusOK, Value: vals, Wait: wait})
}

// terminate is the one flow terminal: local success, a shed or failure
// mid-pipeline, a refusal past stage 0, and a remote completion parcel
// all end here, exactly once — the finished guard makes a racing local
// shed and a late or duplicate remote completion harmless. The terminal
// result, stamped with the flow's priority and admission-to-completion
// Total, resolves every stage future from `from` onward (a mid-pipeline
// shed is visible as StatusShed at each of them; a failure also rides
// the futures' error channel), then the flow's done sink hears it.
func (fl *flowState) terminate(from int, r Result) {
	if fl.finished.Swap(true) {
		return
	}
	s := fl.p.t.srv
	r.Priority = fl.priority
	r.Total = time.Since(fl.enqueued)
	var ferr error
	if r.Status == StatusFailed {
		ferr = r.Err
	}
	for i := from; i < len(fl.futs); i++ { // none for a SubmitFlowAt flow
		fl.futs[i].Resolve(r, ferr)
	}
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
	fl.done.resolve(0, r)
	fl.unref() // terminal reference
}
