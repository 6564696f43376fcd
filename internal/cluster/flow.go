package cluster

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"repro/internal/clock"
	"repro/internal/parcel"
	"repro/internal/serve"
	"repro/internal/trace"
)

// This file threads SubmitFlow across machines. A cluster Pipeline is
// one serve pipeline, built the same on every node, and a cluster flow
// is a serve flow from Submit to completion: serve's own chaining runs
// its stages wherever the flow is. Each flow carries the
// serve.RemoteRouter that decides its hand-offs and hears its terminal:
// the *Pipeline for a flow this node originates, an arrival record for
// a flow a stage parcel brought here. Serve consults it at the entry
// stage and at every scalar stage boundary; when the ring homes that
// stage on another node, the router ships the rest of the flow there as
// a stage parcel (ship), and that node enters its own serve pipeline at
// the stage (SubmitFlowAt). The flow thus chains machine-to-machine
// without revisiting its origin, and the terminal result returns to the
// origin as one completion parcel, which ends the origin's flow through
// its serve.Flow handle. Done-exactly-once holds by construction: the
// completion pops the origin's pending entry under a lock (at most one
// winner), and the handle's finished bit and generation back it.

// StageRoute derives one stage's cluster routing from its input value:
// the key that mixes onto the global locale space (the ring then names
// the owning node) and the names of the tenant globals the stage reads
// (the executing node percolates them before running). A nil route
// inherits the flow's submission key and reads no globals. A route may
// read v but not keep it: a []byte v may be shipped in place next.
type StageRoute func(v any) (key uint64, globals []string)

// PipelineConfig declares one cluster pipeline.
type PipelineConfig struct {
	Name string
	// Stages are the serve-layer stage declarations, exactly as for
	// Tenant.NewPipeline. A stage's []byte input may alias the parcel it
	// arrived in, and a []byte a stage returns is handed on, as the next
	// stage's input or as the body of the parcel that carries it: the
	// stage keeps no reference to it, and reads or writes it no more.
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
	id     uint64          // pipeID(tenant, name): how stage parcels name it
	sp     *serve.Pipeline // every stage this node runs, whoever admitted the flow
	routes []StageRoute
}

// NewPipeline compiles a cluster pipeline for the tenant: one serve
// pipeline, which runs both the flows this node admits and the stages
// that arrive by parcel — under the node's own admission, batching, and
// adaptivity exactly like local work. It refuses a pipeline whose id
// another (tenant, name) on this node already holds, so an id collision
// is a startup error rather than a misrouted parcel.
func (t *Tenant) NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if len(cfg.Routes) != 0 && len(cfg.Routes) != len(cfg.Stages) {
		return nil, fmt.Errorf("cluster: pipeline %q has %d stages but %d routes",
			cfg.Name, len(cfg.Stages), len(cfg.Routes))
	}
	id := pipeID(t.name, cfg.Name)
	t.n.tenantsMu.Lock()
	defer t.n.tenantsMu.Unlock()
	if q := (*t.n.pipes.Load())[id]; q != nil {
		return nil, fmt.Errorf("cluster: pipeline %s/%s: id %#x is held by %s/%s", t.name, cfg.Name, id, q.t.name, q.name)
	}
	sp, err := t.st.NewPipeline(cfg.Name, cfg.Stages...)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{n: t.n, t: t, name: cfg.Name, id: id, sp: sp}
	if len(cfg.Routes) > 0 {
		p.routes = append([]StageRoute(nil), cfg.Routes...)
	}
	pipes := maps.Clone(*t.n.pipes.Load())
	pipes[id] = p
	t.n.pipes.Store(&pipes)
	return p, nil
}

// pipeID names a pipeline on the wire: a hash of its tenant and name,
// the same on every node that registers the pipeline.
func pipeID(tenant, name string) uint64 { return fnv64(tenant + "\x00" + name) }

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

// pipeline looks a compiled cluster pipeline up by id.
func (n *Node) pipeline(id uint64) *Pipeline { return (*n.pipes.Load())[id] }

// Submit admits one flow into the cluster and returns its ticket.
func (p *Pipeline) Submit(req serve.Request) (*serve.Ticket, error) {
	tk := new(serve.Ticket)
	if err := p.SubmitFunc(req, tk.Put); err != nil {
		return nil, err
	}
	return tk, nil
}

// pendingFlow is the origin-side record of one shipped flow: the handle
// a completion finishes, plus everything recovery needs to re-route the
// flow if its executor dies — the last stage parcel's fields, the stage
// input (re-keyed and re-encoded on every re-route), the destination it
// was shipped to, and when the node's recovery sweep is due to re-route
// it (zero while recovery is off). The encoded parcel itself is
// not kept: its receiver owns those bytes, may have changed them in
// place, and may have re-headed them to ship the flow onward or back.
// v is the caller's own value, never a sent body. msg.FlowEpoch is the
// current epoch; completions carrying an older one are zombies' and
// drop.
type pendingFlow struct {
	flow     serve.Flow
	p        *Pipeline
	msg      stageMsg // last parcel this origin shipped
	v        any      // its stage input
	dest     parcel.NodeID
	attempts int
	due      clock.Nanos
}

// SubmitFunc admits one flow, invoking done exactly once with the
// terminal result. The flow is a serve flow at this node from the
// start, with p as its router: when the ring homes stage 0 on another
// node, the flow ships there at admission, and done fires when the
// completion parcel returns. done may then run wherever the transport
// delivers that parcel (on the fabric, the executor's goroutine that
// sent it), and must not block.
func (p *Pipeline) SubmitFunc(req serve.Request, done func(serve.Result)) error {
	n := p.n
	if n.closed.Load() {
		return ErrNodeClosed
	}
	// Counted before the flow can complete; a refused flow never existed.
	n.flowsOriginated.Add(1)
	if err := p.t.st.SubmitFlowAt(p.sp, 0, req, p, done); err != nil {
		n.flowsOriginated.Add(-1)
		return err
	}
	return nil
}

// ForwardStage is the serve.RemoteRouter of the flows this node
// originates: when the ring homes stage next on another node, it ships
// the rest of the flow there (ship) under a pending entry that the
// completion parcel, or recovery, finishes fl through. It returns false
// (nothing registered, nothing sent) when the stage is homed here, the
// node is closed, the value cannot cross the wire, or the peer is
// unreachable — unless recovery took the flow before the failed send
// returned, which makes the flow recovery's.
func (p *Pipeline) ForwardStage(next int, v any, key uint64, deadline clock.Nanos, priority int, fl serve.Flow) bool {
	n := p.n
	skey, _ := p.route(next, v, key)
	dest, _ := n.ownerOf(p.t.hash, skey)
	return dest != n.self && p.ship(dest, stageMsg{Origin: string(n.self), Stage: next, Key: key,
		Deadline: deadline.Unix(), Priority: priority}, v, nil, &fl)
}

// Ended counts the terminal of a flow this node originated.
func (p *Pipeline) Ended(serve.Result) { p.n.flowsCompleted.Add(1) }

// ship sends the rest of a flow — stage sp.Stage, v its input — to dest
// as a stage parcel, and traces the hop. A flow this node originates
// (fl non-nil) is first registered under a fresh flow id, for the
// completion parcel to finish and the recovery sweep to guarantee; a
// flow that arrived here ships under its own id, and its completion
// goes straight to the origin. It reports whether the flow is gone.
func (p *Pipeline) ship(dest parcel.NodeID, sp stageMsg, v any, room []byte, fl *serve.Flow) bool {
	n := p.n
	sp.Pipe = p.id
	var pf *pendingFlow
	if fl != nil {
		flow := n.nextFlow.Add(1)
		sp.Flow = flow
		pf = &pendingFlow{flow: *fl, p: p, msg: sp, v: v, dest: dest}
		n.pendingMu.Lock()
		if n.closed.Load() { // Close has taken the pending map: the stage runs here
			n.pendingMu.Unlock()
			return false
		}
		n.pending[flow] = pf
		n.arm(pf)
		n.pendingMu.Unlock()
	}
	if !n.forward(dest, &sp, v, room) {
		if pf == nil {
			return false
		}
		// Decline only if recovery has not fired meanwhile: once it has
		// resolved or re-routed the flow, finishing it is recovery's, and
		// a decline would run the stage here too, on a flow already ended.
		n.pendingMu.Lock()
		untouched := n.pending[sp.Flow] == pf && pf.attempts == 0
		if untouched {
			delete(n.pending, sp.Flow)
		}
		n.pendingMu.Unlock()
		return !untouched
	}
	if n.traces != nil {
		n.traces.record(parcel.NodeID(sp.Origin), sp.Flow, trace.KindRemoteHop,
			"%s/%s stage %d: %s -> %s", p.t.name, p.name, sp.Stage, n.self, dest)
	}
	return true
}

// arm sets when pending flow pf is due for recovery (n.pendingMu held):
// how long the origin waits for the shipped flow before suspecting its
// executor is the configured FlowTimeout, clipped to the flow's own
// deadline so a deadlined flow is resolved (not merely retried) the
// moment it can no longer make it. The node's one sweep timer is moved
// only when pf is due before it: flows that share FlowTimeout fall due
// in the order they ship, so arming one costs one read of the node's
// clock. A negative FlowTimeout disables recovery.
func (n *Node) arm(pf *pendingFlow) {
	d := n.recCfg.FlowTimeout
	if d <= 0 {
		return
	}
	now := n.now()
	if deadline := clock.FromUnix(pf.msg.Deadline); deadline != clock.Never {
		d = min(d, time.Duration(deadline-now))
	}
	pf.due = now + clock.Nanos(max(d, time.Millisecond))
	n.wake(pf.due, now)
}

// wake sets the sweep timer for at, the clock reading now, unless it is
// set for earlier already (n.pendingMu held).
func (n *Node) wake(at, now clock.Nanos) {
	if n.sweepAt == 0 || at < n.sweepAt {
		n.sweepAt = at
		n.sweep.Reset(time.Duration(at - now))
	}
}

// sweepPending is the body of the node's recovery timer — the reason no
// shipped flow waits forever. It collects the pending flows that are
// due, sets the timer for the earliest of the rest, and recovers each
// due flow on a goroutine of its own, so a re-route whose send stalls
// holds up no other.
func (n *Node) sweepPending() {
	now := n.now()
	var due []uint64
	n.pendingMu.Lock()
	n.sweepAt = 0
	for flow, pf := range n.pending {
		if pf.due <= now {
			due = append(due, flow)
		} else {
			n.wake(pf.due, now)
		}
	}
	n.pendingMu.Unlock()
	for _, flow := range due {
		go n.recoverFlow(flow, now)
	}
}

// recoverFlow inspects one still-pending flow: past its deadline it
// resolves StatusShed; out of attempts it resolves StatusFailed;
// otherwise it bumps the flow epoch (so any completion from the
// previous attempt's executor — alive or zombie — is dropped as stale),
// re-routes the retained stage parcel by the current ring, and re-arms
// the flow. The sweep passes the time it found the flow due at, and
// recovers it only if it is due still: a forced recovery (sweptAt zero,
// from recoverAfter) may have re-armed it meanwhile. The flow may
// execute more than once; the epoch gate keeps its resolution
// exactly-once.
func (n *Node) recoverFlow(flow uint64, sweptAt clock.Nanos) {
	n.pendingMu.Lock()
	pf := n.pending[flow]
	if pf == nil || (sweptAt != 0 && pf.due > sweptAt) {
		n.pendingMu.Unlock()
		return
	}
	n.recoveredFlows.Add(1)
	var end serve.Result
	if n.now() > clock.FromUnix(pf.msg.Deadline) {
		end = serve.Result{Status: serve.StatusShed,
			Err: fmt.Errorf("cluster: flow %d missed its deadline during recovery from %s", flow, pf.dest)}
	} else if pf.attempts >= n.recCfg.MaxAttempts {
		end = serve.Result{Status: serve.StatusFailed,
			Err: fmt.Errorf("cluster: flow %d unresolved after %d recovery attempts (last executor %s)",
				flow, pf.attempts, pf.dest)}
	}
	if end.Err != nil {
		delete(n.pending, flow)
		n.pendingMu.Unlock()
		if n.traces != nil {
			n.traces.record(n.self, flow, trace.KindAdapt, "recovery: %s: %v", end.Status, end.Err)
		}
		pf.flow.Finish(end)
		return
	}
	pf.attempts++
	pf.msg.FlowEpoch++
	sp, p, v, attempt := pf.msg, pf.p, pf.v, pf.attempts
	skey, globals := p.route(sp.Stage, v, sp.Key)
	owner, _ := n.ownerOf(p.t.hash, skey)
	pf.dest = owner
	n.arm(pf)
	n.pendingMu.Unlock()
	if n.traces != nil {
		n.traces.record(n.self, flow, trace.KindAdapt,
			"recovery: attempt %d re-routes stage %d to %s (epoch %d)", attempt, sp.Stage, owner, sp.FlowEpoch)
	}
	if owner != n.self && n.forward(owner, &sp, v, nil) {
		return
	}
	// The new owner is unreachable too: run the stage here rather than
	// burning the remaining attempts against a dead wire.
	n.enter(p, sp, v, globals, nil)
}

// forward sends a stage parcel to dest, re-headed into room's body when
// v still sits behind room (encodeStageIn), and counts it as forwarded —
// before the send, since the parcel may complete the flow before Send
// returns. It reports whether the parcel went.
func (n *Node) forward(dest parcel.NodeID, sp *stageMsg, v any, room []byte) bool {
	pb, err := encodeStageIn(room, sp, v)
	if err != nil {
		return false
	}
	n.forwardedStages.Add(1)
	if n.t.Send(dest, "cluster.stage", pb) != nil {
		n.forwardedStages.Add(-1)
		return false
	}
	return true
}

// handleStage executes one arriving stage parcel. It runs where the
// transport delivers (the sender's goroutine on the fabric, the read
// loop on netparcel), which must not block: when the code
// image and the stage's globals are already resident the stage is
// admitted right here (serve admission refuses rather than waits);
// otherwise the stage runs on its own goroutine, because its fetch is a
// Call whose reply may arrive on this very delivery goroutine.
func (n *Node) handleStage(_ parcel.NodeID, body []byte) ([]byte, error) {
	sp, vb, err := decodeStage(body)
	if err != nil {
		return nil, err
	}
	p := n.pipeline(sp.Pipe)
	var v any
	var room []byte
	if p == nil || sp.Stage < 0 || sp.Stage >= p.Len() {
		err = fmt.Errorf("cluster: node %s has no pipeline %#x (stage %d)", n.self, sp.Pipe, sp.Stage)
	} else if v, err = decodeValue(vb); err != nil {
		err = fmt.Errorf("cluster: stage %d value: %w", sp.Stage, err)
	} else if x, ok := v.([]byte); ok {
		room = body[:len(body)-len(x)] // the value ends the body
	}
	if err != nil {
		n.completeFlow(&sp, serve.Result{Status: serve.StatusFailed, Err: err}, nil)
		return nil, nil
	}
	if _, globals := p.route(sp.Stage, v, sp.Key); p.t.warm(parcel.NodeID(sp.Origin), globals) {
		n.enter(p, sp, v, globals, room)
	} else {
		go n.enter(p, sp, v, globals, room)
	}
	return nil, nil
}

// enter starts an arrived flow in this node's serve pipeline at stage
// sp.Stage, whose routing named globals, and whose []byte input v, when
// it aliases its parcel, sits behind room: a deadline check against the
// node's own clock (so harnesses that inject one steer shedding
// deterministically; stages chained here afterwards are shed by serve's
// own deadline check), then serve runs the flow with an arrival as its
// router, which accounts the entry stage when serve consults it there.
func (n *Node) enter(p *Pipeline, sp stageMsg, v any, globals []string, room []byte) {
	deadline := clock.FromUnix(sp.Deadline)
	if n.now() > deadline {
		n.completeFlow(&sp, serve.Result{Status: serve.StatusShed}, nil)
		return
	}
	req := serve.Request{Key: sp.Key, Payload: v, Deadline: deadline.Time(), Priority: sp.Priority}
	a := &arrival{p: p, msg: sp, globals: globals, room: room}
	if err := p.t.st.SubmitFlowAt(p.sp, sp.Stage, req, a, nil); err != nil {
		n.completeFlow(&sp, serve.Result{Status: serve.StatusRejected, Err: err}, nil)
	}
}

// arrival is the serve.RemoteRouter of a flow a stage parcel (msg)
// brought to this node. Its entry stage runs here, where the ring sent
// it; at a later boundary it ships the flow onward through the origin's
// ship path, but under the flow's own (origin, flow, epoch) and with no
// pending entry, and when it declines (the ring says here, or the
// parcel cannot be sent) the stage runs where it is. Hearing the
// terminal, it returns the result to the origin unless the flow shipped
// on. Either exit parcel is re-headed into the arrived body (room) when
// the stages handed back its []byte, so a flow's bytes are copied once,
// at its origin.
type arrival struct {
	p       *Pipeline
	msg     stageMsg
	globals []string // the entry stage's
	room    []byte   // msg's body in front of its []byte input, for the exit parcel to re-head
	shipped bool
}

func (a *arrival) ForwardStage(next int, v any, key uint64, deadline clock.Nanos, priority int, fl serve.Flow) bool {
	if next == a.msg.Stage {
		a.run(next, a.globals)
		return false
	}
	p, n := a.p, a.p.n
	skey, globals := p.route(next, v, key)
	if owner, _ := n.ownerOf(p.t.hash, skey); owner != n.self {
		sp := a.msg
		sp.Stage, sp.Key, sp.Deadline, sp.Priority = next, key, deadline.Unix(), priority
		if p.ship(owner, sp, v, a.room, nil) {
			// The flow's result now reaches the origin from elsewhere: end
			// the local flow without a completion parcel.
			a.shipped = true
			fl.Finish(serve.Result{Status: serve.StatusOK})
			return true
		}
	}
	a.run(next, globals)
	return false
}

// Ended returns the arrived flow's terminal result to its origin.
func (a *arrival) Ended(r serve.Result) {
	if !a.shipped {
		a.p.n.completeFlow(&a.msg, r, a.room)
	}
}

// run accounts one stage of the arrived flow that executes on this
// node: counted by whether the flow is this node's own, its globals
// made resident, the execution traced.
func (a *arrival) run(stage int, globals []string) {
	p, n := a.p, a.p.n
	origin := parcel.NodeID(a.msg.Origin)
	if origin != n.self {
		n.remoteStages.Add(1)
	} else {
		n.localStages.Add(1)
	}
	p.t.ensureResident(origin, globals)
	if n.traces != nil {
		n.traces.record(origin, a.msg.Flow, trace.KindDispatch, "%s/%s stage %d @ %s", p.t.name, p.name, stage, n.self)
	}
}

// completeFlow returns the terminal result of the flow sp carried to
// its origin — directly when the flow ended where it began, else as a
// completion parcel, re-headed into room's body when the value still
// sits behind room (encodeCompleteIn). The epoch travels with the
// result: the origin only accepts completions for the attempt it
// currently has in flight.
func (n *Node) completeFlow(sp *stageMsg, r serve.Result, room []byte) {
	origin := parcel.NodeID(sp.Origin)
	if origin == n.self {
		n.finishFlow(sp.Flow, sp.FlowEpoch, r)
		return
	}
	cm := completeMsg{Flow: sp.Flow, FlowEpoch: sp.FlowEpoch, Status: uint8(r.Status)}
	if r.Err != nil {
		cm.Err = r.Err.Error()
	}
	var v any
	if r.Status == serve.StatusOK {
		v = r.Value
	}
	body, err := encodeCompleteIn(room, &cm, v)
	if err != nil {
		cm.Status = uint8(serve.StatusFailed)
		cm.Err = fmt.Sprintf("cluster: result value does not encode: %v", err)
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

// finishFlow pops the flow's pending entry and finishes its flow —
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
	n.pendingMu.Unlock()
	if pf != nil {
		pf.flow.Finish(r)
	}
}
