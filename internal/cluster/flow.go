package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/parcel"
	"repro/internal/serve"
	"repro/internal/trace"
)

// This file threads SubmitFlow across machines. A cluster Pipeline is
// one serve pipeline, built the same on every node, and serve's own
// chaining runs its stages wherever the flow is. Each flow carries the
// serve.RemoteRouter that decides its hand-offs: the *Pipeline for a
// flow this node originates, an arrival record for a flow a stage
// parcel brought here. At a scalar stage boundary whose next stage the
// ring homes on another node, the router ships the rest of the flow
// there as a stage parcel, and that node enters its own serve pipeline
// at the stage (SubmitFlowAt). The flow thus chains machine-to-machine
// without revisiting its origin, and the terminal result returns to the
// origin as one completion parcel. Done-exactly-once holds by
// construction: the completion pops the origin's pending entry under a
// lock (at most one winner), and the serve layer's flowState guard
// backs the locally-chained case.

// StageRoute derives one stage's cluster routing from its input value:
// the key that mixes onto the global locale space (the ring then names
// the owning node) and the names of the tenant globals the stage reads
// (the executing node percolates them before running). A nil route
// inherits the flow's submission key and reads no globals.
type StageRoute func(v any) (key uint64, globals []string)

// PipelineConfig declares one cluster pipeline.
type PipelineConfig struct {
	Name string
	// Stages are the serve-layer stage declarations, exactly as for
	// Tenant.NewPipeline.
	Stages []serve.Stage
	// Routes gives each stage its cluster routing; nil entries (or a nil
	// slice) inherit the flow key. Length must be 0 or len(Stages).
	Routes []StageRoute
}

// Pipeline is a compiled cluster pipeline: immutable, safe for
// concurrent submissions. Build the same pipeline (same tenant, name,
// stages) on every node.
type Pipeline struct {
	n      *Node
	t      *Tenant
	name   string
	sp     *serve.Pipeline // every stage this node runs, whoever admitted the flow
	routes []StageRoute
}

// NewPipeline compiles a cluster pipeline for the tenant: one serve
// pipeline, which runs both the flows this node admits and the stages
// that arrive by parcel — under the node's own admission, batching, and
// adaptivity exactly like local work.
func (t *Tenant) NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if len(cfg.Routes) != 0 && len(cfg.Routes) != len(cfg.Stages) {
		return nil, fmt.Errorf("cluster: pipeline %q has %d stages but %d routes",
			cfg.Name, len(cfg.Stages), len(cfg.Routes))
	}
	sp, err := t.st.NewPipeline(cfg.Name, cfg.Stages...)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{n: t.n, t: t, name: cfg.Name, sp: sp}
	if len(cfg.Routes) > 0 {
		p.routes = append([]StageRoute(nil), cfg.Routes...)
	}
	t.n.tenantsMu.Lock()
	t.n.pipes[pipeKey{t.name, cfg.Name}] = p
	t.n.tenantsMu.Unlock()
	return p, nil
}

// Name returns the pipeline's registered name.
func (p *Pipeline) Name() string { return p.name }

// Len returns the number of stages.
func (p *Pipeline) Len() int { return p.sp.Len() }

// route derives one stage's cluster routing inputs.
func (p *Pipeline) route(stage int, v any, flowKey uint64) (uint64, []string) {
	if stage < len(p.routes) && p.routes[stage] != nil {
		return p.routes[stage](v)
	}
	return flowKey, nil
}

// pipeKey names a compiled cluster pipeline: tenant and pipeline name.
type pipeKey struct{ tenant, name string }

// pipeline looks a compiled cluster pipeline up by tenant and name.
func (n *Node) pipeline(tenant, name string) *Pipeline {
	n.tenantsMu.RLock()
	defer n.tenantsMu.RUnlock()
	return n.pipes[pipeKey{tenant, name}]
}

// Ticket follows one cluster flow to its terminal result.
type Ticket struct {
	ch   chan serve.Result
	once sync.Once
	r    serve.Result
}

// Wait blocks until the flow resolves (idempotent).
func (tk *Ticket) Wait() serve.Result {
	tk.once.Do(func() { tk.r = <-tk.ch })
	return tk.r
}

// Submit admits one flow into the cluster and returns its ticket.
func (p *Pipeline) Submit(req serve.Request) (*Ticket, error) {
	tk := &Ticket{ch: make(chan serve.Result, 1)}
	if err := p.SubmitFunc(req, func(r serve.Result) { tk.ch <- r }); err != nil {
		return nil, err
	}
	return tk, nil
}

// pendingFlow is the origin-side record of one shipped flow: the finish
// callback a completion resolves, plus everything recovery needs to
// re-route the flow if its executor dies — the last stage parcel's
// fields, the stage input (re-keyed and re-encoded on every re-route),
// the destination it was shipped to, and the recovery timer. The
// encoded parcel itself is not kept: its receiver owns those bytes and
// may have changed them in place. msg.FlowEpoch is the current epoch;
// completions carrying an older one are zombies' and drop.
type pendingFlow struct {
	fin      func(serve.Result)
	p        *Pipeline
	msg      stageMsg // last parcel this origin shipped
	v        any      // its stage input
	dest     parcel.NodeID
	attempts int
	deadline time.Time // the flow's own deadline; zero = none
	timer    *time.Timer
}

// SubmitFunc admits one flow, invoking done exactly once with the
// terminal result. Admission itself is ring-routed: when stage 0's home
// locale belongs to another node, the whole flow ships there as a stage
// parcel instead of admitting locally, and done fires when the
// completion parcel returns. done may then run on a transport delivery
// goroutine, and must not block.
func (p *Pipeline) SubmitFunc(req serve.Request, done func(serve.Result)) error {
	n := p.n
	if n.closed.Load() {
		return ErrNodeClosed
	}
	finish := func(r serve.Result) {
		n.flowsCompleted.Add(1)
		done(r)
	}
	// Stage 0 homed here, or it could not ship (encode failure, peer
	// just left): admit locally.
	if !p.ForwardStage(0, req.Payload, req.Key, req.Deadline, req.Priority, finish) {
		if err := p.t.st.SubmitFlowAt(p.sp, 0, req, p, finish); err != nil {
			return err
		}
	}
	n.flowsOriginated.Add(1)
	return nil
}

// ForwardStage is the serve.RemoteRouter of the flows this node
// originates, consulted at admission (stage 0) and at every scalar stage
// boundary. When the ring homes stage next on another node, it ships
// the remainder of the flow there as a stage parcel — v the stage's
// input — registering finish under a fresh flow id, to be resolved by
// the completion parcel, and arming the recovery timer that guarantees
// the flow resolves even if the destination dies. It returns false
// (nothing registered, nothing sent) when the stage is homed here, the
// value cannot cross the wire, or the peer is unreachable — unless the
// recovery timer fired before the failed send returned, which makes the
// flow recovery's.
func (p *Pipeline) ForwardStage(next int, v any, key uint64, deadline time.Time, priority int,
	finish func(serve.Result)) bool {
	n := p.n
	if n.closed.Load() {
		return false
	}
	skey, _ := p.route(next, v, key)
	dest, _ := n.ownerOf(p.t.hash, skey)
	if dest == n.self {
		return false
	}
	flow := n.nextFlow.Add(1)
	sp := stageMsg{Flow: flow, Origin: string(n.self), Tenant: p.t.name, Pipe: p.name, Stage: next,
		Key: key, Deadline: deadlineNS(deadline), Priority: priority}
	pb, err := encodeStage(&sp, v)
	if err != nil {
		return false
	}
	pf := &pendingFlow{fin: finish, p: p, msg: sp, v: v, dest: dest, deadline: nsTime(sp.Deadline)}
	n.pendingMu.Lock()
	n.pending[flow] = pf
	if d := n.recoverDelay(pf.deadline); d > 0 {
		pf.timer = time.AfterFunc(d, func() { n.recoverFlow(flow) })
	}
	n.pendingMu.Unlock()
	if err := n.t.Send(dest, "cluster.stage", pb); err != nil {
		// Decline only if recovery has not fired meanwhile: once it has
		// resolved or re-routed the flow, finish is its to call, and a
		// decline would run the stage here too, on a flow already ended.
		n.pendingMu.Lock()
		untouched := n.pending[flow] == pf && pf.attempts == 0
		if untouched {
			delete(n.pending, flow)
			if pf.timer != nil {
				pf.timer.Stop()
			}
		}
		n.pendingMu.Unlock()
		return !untouched
	}
	n.forwardedStages.Add(1)
	if n.traces != nil {
		n.traces.record(n.self, flow, trace.KindRemoteHop,
			"%s/%s stage %d: %s -> %s", sp.Tenant, sp.Pipe, sp.Stage, n.self, dest)
	}
	return true
}

// recoverDelay is how long the origin waits for a shipped flow before
// suspecting its executor: the configured FlowTimeout, clipped to the
// flow's own deadline so a deadlined flow is resolved (not merely
// retried) the moment it can no longer make it. 0 means recovery is
// disabled.
func (n *Node) recoverDelay(deadline time.Time) time.Duration {
	d := n.recCfg.FlowTimeout
	if d <= 0 {
		return 0
	}
	if !deadline.IsZero() {
		if until := deadline.Sub(n.now()); until < d {
			d = until
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// recoverFlow is the recovery timer's body — the reason no Ticket.Wait
// ever blocks forever. It inspects one still-pending flow: past its
// deadline it resolves StatusShed; out of attempts it resolves
// StatusFailed; otherwise it bumps the flow epoch (so any completion
// from the previous attempt's executor — alive or zombie — is dropped
// as stale), re-routes the retained stage parcel by the current ring,
// and re-arms the timer. The flow may execute more than once; the epoch
// gate keeps its resolution exactly-once.
func (n *Node) recoverFlow(flow uint64) {
	n.pendingMu.Lock()
	pf := n.pending[flow]
	if pf == nil {
		n.pendingMu.Unlock()
		return
	}
	if !pf.deadline.IsZero() && n.now().After(pf.deadline) {
		delete(n.pending, flow)
		n.pendingMu.Unlock()
		n.recoveredFlows.Add(1)
		if n.traces != nil {
			n.traces.record(n.self, flow, trace.KindAdapt, "recovery: flow deadline passed, shed")
		}
		pf.fin(serve.Result{Status: serve.StatusShed,
			Err: fmt.Errorf("cluster: flow %d missed its deadline during recovery from %s", flow, pf.dest)})
		return
	}
	if pf.attempts >= n.recCfg.MaxAttempts {
		delete(n.pending, flow)
		n.pendingMu.Unlock()
		n.recoveredFlows.Add(1)
		pf.fin(serve.Result{Status: serve.StatusFailed,
			Err: fmt.Errorf("cluster: flow %d unresolved after %d recovery attempts (last executor %s)",
				flow, pf.attempts, pf.dest)})
		return
	}
	pf.attempts++
	pf.msg.FlowEpoch++
	sp, p, v, attempt := pf.msg, pf.p, pf.v, pf.attempts
	skey, globals := p.route(sp.Stage, v, sp.Key)
	owner, _ := n.ownerOf(p.t.hash, skey)
	pf.dest = owner
	if d := n.recoverDelay(pf.deadline); d > 0 {
		pf.timer = time.AfterFunc(d, func() { n.recoverFlow(flow) })
	}
	n.pendingMu.Unlock()
	n.recoveredFlows.Add(1)
	if n.traces != nil {
		n.traces.record(n.self, flow, trace.KindAdapt,
			"recovery: attempt %d re-routes stage %d to %s (epoch %d)", attempt, sp.Stage, owner, sp.FlowEpoch)
	}
	if owner != n.self {
		if pb, err := encodeStage(&sp, v); err == nil && n.t.Send(owner, "cluster.stage", pb) == nil {
			n.forwardedStages.Add(1)
			return
		}
		// The new owner is unreachable too: run the stage here rather than
		// burning the remaining attempts against a dead wire.
	}
	n.enter(p, sp, v, globals)
}

// handleStage executes one arriving stage parcel. It runs on the
// transport's delivery goroutine, which must not block: when the code
// image and the stage's globals are already resident the stage is
// admitted right here (serve admission refuses rather than waits);
// otherwise the stage runs on its own goroutine, because its fetch is a
// Call whose reply may arrive on this very delivery goroutine.
func (n *Node) handleStage(_ parcel.NodeID, body []byte) ([]byte, error) {
	sp, vb, err := decodeStage(body)
	if err != nil {
		return nil, err
	}
	origin := parcel.NodeID(sp.Origin)
	p := n.pipeline(sp.Tenant, sp.Pipe)
	if p == nil || sp.Stage < 0 || sp.Stage >= p.Len() {
		n.completeFlow(origin, sp.Flow, sp.FlowEpoch, serve.Result{Status: serve.StatusFailed,
			Err: fmt.Errorf("cluster: node %s has no pipeline %s/%s (stage %d)",
				n.self, sp.Tenant, sp.Pipe, sp.Stage)})
		return nil, nil
	}
	v, err := decodeValue(vb)
	if err != nil {
		n.completeFlow(origin, sp.Flow, sp.FlowEpoch, serve.Result{Status: serve.StatusFailed,
			Err: fmt.Errorf("cluster: stage %d value: %w", sp.Stage, err)})
		return nil, nil
	}
	if _, globals := p.route(sp.Stage, v, sp.Key); p.t.warm(origin, globals) {
		n.enter(p, sp, v, globals)
	} else {
		go n.enter(p, sp, v, globals)
	}
	return nil, nil
}

// enter starts an arrived flow in this node's serve pipeline at stage
// sp.Stage, whose routing named globals: a deadline check against the
// node's own clock (so harnesses that inject one steer shedding
// deterministically; stages chained here afterwards are shed by serve's
// own deadline check), then the stage is counted, percolated and
// traced, and serve chains the rest with an arrival as the router.
func (n *Node) enter(p *Pipeline, sp stageMsg, v any, globals []string) {
	origin := parcel.NodeID(sp.Origin)
	deadline := nsTime(sp.Deadline)
	if !deadline.IsZero() && n.now().After(deadline) {
		n.completeFlow(origin, sp.Flow, sp.FlowEpoch, serve.Result{Status: serve.StatusShed})
		return
	}
	a := &arrival{p: p, origin: origin, flow: sp.Flow, epoch: sp.FlowEpoch}
	a.run(sp.Stage, globals)
	req := serve.Request{Key: sp.Key, Payload: v, Deadline: deadline, Priority: sp.Priority}
	if err := p.t.st.SubmitFlowAt(p.sp, sp.Stage, req, a, a.done); err != nil {
		n.completeFlow(origin, sp.Flow, sp.FlowEpoch, serve.Result{Status: serve.StatusRejected, Err: err})
	}
}

// arrival is the serve.RemoteRouter of a flow a stage parcel brought to
// this node. It ships onward under the flow's own (origin, flow, epoch)
// with no pending entry — the completion goes straight to the origin —
// and when it declines (the ring says here, or the parcel cannot be
// sent) the stage runs where it is. Its done returns the terminal
// result to the origin unless the flow shipped on.
type arrival struct {
	p       *Pipeline
	origin  parcel.NodeID
	flow    uint64
	epoch   uint32
	shipped bool
}

func (a *arrival) ForwardStage(next int, v any, key uint64, deadline time.Time, priority int,
	finish func(serve.Result)) bool {
	p, n := a.p, a.p.n
	skey, globals := p.route(next, v, key)
	if owner, _ := n.ownerOf(p.t.hash, skey); owner != n.self {
		sp := stageMsg{Flow: a.flow, FlowEpoch: a.epoch, Origin: string(a.origin), Tenant: p.t.name,
			Pipe: p.name, Stage: next, Key: key, Deadline: deadlineNS(deadline), Priority: priority}
		if pb, err := encodeStage(&sp, v); err == nil && n.t.Send(owner, "cluster.stage", pb) == nil {
			n.forwardedStages.Add(1)
			if n.traces != nil {
				n.traces.record(a.origin, a.flow, trace.KindRemoteHop,
					"%s/%s stage %d: %s -> %s", p.t.name, p.name, next, n.self, owner)
			}
			// The flow's result now reaches the origin from elsewhere: end
			// the local flow without a completion parcel.
			a.shipped = true
			finish(serve.Result{Status: serve.StatusOK})
			return true
		}
	}
	a.run(next, globals)
	return false
}

// run accounts one stage of the arrived flow that executes on this
// node: counted by whether the flow is this node's own, its globals
// made resident, the execution traced.
func (a *arrival) run(stage int, globals []string) {
	p, n := a.p, a.p.n
	if a.origin != n.self {
		n.remoteStages.Add(1)
	} else {
		n.localStages.Add(1)
	}
	p.t.ensureResident(a.origin, globals)
	if n.traces != nil {
		n.traces.record(a.origin, a.flow, trace.KindDispatch, "%s/%s stage %d @ %s", p.t.name, p.name, stage, n.self)
	}
}

// done is the arrived flow's terminal sink.
func (a *arrival) done(r serve.Result) {
	if !a.shipped {
		a.p.n.completeFlow(a.origin, a.flow, a.epoch, r)
	}
}

// completeFlow returns a forwarded flow's terminal result to its
// origin — directly when the flow ended where it began, else as a
// completion parcel. epoch travels with the result: the origin only
// accepts completions for the attempt it currently has in flight.
func (n *Node) completeFlow(origin parcel.NodeID, flow uint64, epoch uint32, r serve.Result) {
	if origin == n.self {
		n.finishFlow(flow, epoch, r)
		return
	}
	cm := completeMsg{Flow: flow, FlowEpoch: epoch, Status: uint8(r.Status)}
	if r.Err != nil {
		cm.Err = r.Err.Error()
	}
	var v any
	if r.Status == serve.StatusOK {
		v = r.Value
	}
	body, err := encodeComplete(&cm, v)
	if err != nil {
		cm.Status = uint8(serve.StatusFailed)
		cm.Err = fmt.Sprintf("cluster: result value does not encode: %v (see RegisterType)", err)
		body, _ = encodeComplete(&cm, nil) // a nil value always encodes
	}
	// A send failure means the origin is gone; its pending entry resolves
	// at its own Close.
	_ = n.t.Send(origin, "cluster.complete", body)
}

// handleComplete resolves a completion parcel at the flow's origin,
// right on the delivery goroutine: finishing a flow never blocks.
// The status byte is wire input and is range-checked before it becomes
// a serve.Status: a corrupt or out-of-range byte resolves the flow
// StatusFailed with a descriptive error instead of minting a status the
// serve layer does not define.
func (n *Node) handleComplete(from parcel.NodeID, body []byte) ([]byte, error) {
	cm, vb, err := decodeComplete(body)
	if err != nil {
		return nil, err
	}
	var r serve.Result
	if cm.Status > uint8(serve.StatusFailed) {
		r = serve.Result{Status: serve.StatusFailed,
			Err: fmt.Errorf("cluster: completion from %s carried invalid status byte %d (max %d)",
				from, cm.Status, uint8(serve.StatusFailed))}
	} else {
		r = serve.Result{Status: serve.Status(cm.Status)}
		if cm.Err != "" {
			r.Err = errors.New(cm.Err)
		}
		v, err := decodeValue(vb)
		if err != nil {
			r.Status = serve.StatusFailed
			r.Err = fmt.Errorf("cluster: completion value: %w", err)
		} else {
			r.Value = v
		}
	}
	if n.traces != nil {
		n.traces.record(n.self, cm.Flow, trace.KindComplete, "completion from %s: %s", from, r.Status)
	}
	n.finishFlow(cm.Flow, cm.FlowEpoch, r)
	return nil, nil
}

// finishFlow pops the flow's pending finish callback and fires it —
// the pop is the exactly-once gate: a duplicate or late completion
// finds no entry and is dropped. The epoch comparison extends the gate
// across recovery: a completion from an attempt the origin has already
// re-routed past (a zombie executor finishing after its eviction) finds
// the entry at a newer epoch and is dropped the same way.
func (n *Node) finishFlow(flow uint64, epoch uint32, r serve.Result) {
	n.pendingMu.Lock()
	pf := n.pending[flow]
	if pf != nil && pf.msg.FlowEpoch != epoch {
		n.pendingMu.Unlock()
		n.staleCompletions.Add(1)
		return
	}
	delete(n.pending, flow)
	if pf != nil && pf.timer != nil {
		pf.timer.Stop()
	}
	n.pendingMu.Unlock()
	if pf != nil {
		pf.fin(r)
	}
}

// deadlineNS packs a deadline for the wire; zero time is 0.
func deadlineNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nsTime unpacks a wire deadline; 0 is the zero time.
func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
