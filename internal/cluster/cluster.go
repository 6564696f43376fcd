// Package cluster distributes the serving path across processes: each
// Node hosts its own litlx.System and serve.Server, a small membership
// protocol keeps a shared member list, and a consistent-hash Ring maps
// the global locale space onto the members — every node owns one
// contiguous range of locales. Parcels between nodes ride a
// parcel.Transport: the in-process parcel.Fabric for deterministic
// scenarios and tests, or the TCP transport in
// internal/cluster/netparcel between real machines.
//
// The serving integration is end to end:
//
//   - admission — Pipeline.Submit starts a serve flow at this node,
//     whose router (the Pipeline) serve consults at stage 0 as at every
//     later boundary: a flow whose first stage the ring homes on
//     another node ships there as a stage parcel at once, and its
//     origin flow waits, pooled like any other, for the completion;
//   - flow chaining — a cluster Pipeline is one serve pipeline per
//     node, and every flow carries a serve.RemoteRouter, so a flow
//     hands off machine-to-machine at any scalar stage boundary whose
//     next stage the ring homes elsewhere; an arriving stage parcel
//     enters the receiving node's pipeline at that stage, and the
//     origin's flow resolves when the completion parcel returns,
//     exactly once, through its serve.Flow handle;
//   - percolation — a node executing a stage for a tenant it has not
//     served before fetches the tenant's code image from the flow's
//     origin, and each declared global object from the owner of its
//     home locale: real bytes on the wire, single-flight per
//     (node, image/object), counted in Stats;
//   - tracing — every cross-node hop and remote execution is recorded
//     per flow id; StitchFlow merges the records from all members into
//     one timeline.
//
// Membership is deliberately small. A node's view — the member list,
// its epoch, and the ring the list implies — is one immutable value,
// and adopt is the only place it changes. A joiner Calls "cluster.join"
// at any member, which admits it under the next epoch, replies with the
// member list, and broadcasts it; a member whose failure detector
// evicts a peer broadcasts the shrunken list the same way. Receivers
// adopt lists with a newer epoch, dial any members they cannot reach
// yet, and recover what a dropped member held. There is no graceful
// leave: a node that stops is evicted by its peers' detectors. The ring
// is a pure function of the member set, so agreement on the list is
// agreement on routing. The epoch is a freshness guard for those
// broadcasts, not a consensus term — done-exactly-once for flows never
// depends on it (completions resolve a pending entry popped under a
// lock at the origin, and the serve layer's terminal guard backs it).
//
// Registration must be symmetric, like parcel handlers: every node
// registers the same tenants and pipelines before traffic flows.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// ErrNodeClosed reports a submission or join on a closed node.
var ErrNodeClosed = errors.New("cluster: node closed")

// Config assembles one cluster node.
type Config struct {
	// Transport carries parcels between nodes (required). The node
	// registers its "cluster.*" handlers on it at construction, so hand
	// the transport over before any peer starts sending.
	Transport parcel.Transport
	// System boots the node's local litlx.System. Its Locales is also
	// the size of the global locale space the ring partitions (default 4
	// when zero) — every node must use the same value.
	System litlx.Config
	// Serve configures the node's serve.Server.
	Serve serve.Config
	// TraceFlows retains bounded per-flow records of cross-node hops and
	// remote stage executions, served to peers for StitchFlow. Off by
	// default — the flow hot path then pays one nil check.
	TraceFlows bool
	// Detect configures the heartbeat failure detector. The zero value
	// leaves it off; set Every to start probing.
	Detect DetectConfig
	// Recover configures origin-side pending-flow recovery. The zero
	// value enables it with defaults (FlowTimeout 5s, MaxAttempts 3) —
	// the invariant that every shipped flow resolves, so no done
	// callback or serve.Ticket waits forever on a dead node, holds out
	// of the box; set FlowTimeout negative to disable.
	Recover RecoverConfig
	// Clock is the node's time source (default clock.Now, the monotonic
	// base serve reads too). The deadline check on a stage parcel's
	// arrival and the recovery sweep's schedule (when a shipped flow
	// falls due, clipped to its deadline) read it, so tests and scenario
	// harnesses can steer shedding deterministically; stages the node
	// then chains locally are shed by serve's own deadline check. Wire
	// deadlines are unix nanoseconds, converted onto it on arrival.
	Clock func() clock.Nanos
}

// DetectConfig tunes the heartbeat failure detector: every Every the
// node pings each peer it believes is a member, and a peer missing
// Misses consecutive probes is evicted — removed from the member list,
// the ring rebalanced onto the survivors, the shrunken list broadcast,
// and the dead node's pending flows and global objects recovered.
type DetectConfig struct {
	// Every is the probe period; 0 disables the detector.
	Every time.Duration
	// Misses is how many consecutive failed probes evict a member
	// (default 3).
	Misses int
}

// RecoverConfig tunes origin-side pending-flow recovery.
type RecoverConfig struct {
	// FlowTimeout is how long the origin waits for a shipped flow before
	// suspecting its executor and re-routing it (clipped to the flow's
	// own deadline). 0 defaults to 5s; negative disables recovery.
	FlowTimeout time.Duration
	// MaxAttempts bounds re-routes per flow before it resolves
	// StatusFailed (default 3).
	MaxAttempts int
}

// Node is one cluster member: a process hosting a contiguous range of
// the locale space, serving flows that arrive locally or by parcel.
type Node struct {
	self parcel.NodeID
	t    parcel.Transport
	sys  *litlx.System
	srv  *serve.Server

	locales int

	mu   sync.Mutex           // serialises membership changes
	view atomic.Pointer[view] // stored by adopt alone; read without a lock

	tenantsMu sync.RWMutex
	tenants   map[string]*Tenant
	pipes     atomic.Pointer[map[uint64]*Pipeline] // by pipeID; copied on write under tenantsMu, read without a lock

	// pending holds the records of flows this node originated and shipped
	// away; a completion parcel pops its entry exactly once, and the
	// recovery sweep re-routes entries whose executor died. sweep is the
	// one recovery timer, set for sweepAt (zero when not set); both
	// sweepAt and an entry's due time are read from clock.
	nextFlow  atomic.Uint64
	pendingMu sync.Mutex
	pending   map[uint64]*pendingFlow
	sweep     *time.Timer
	sweepAt   clock.Nanos

	clock  func() clock.Nanos
	detCfg DetectConfig
	recCfg RecoverConfig

	detectStop chan struct{}
	detectDone chan struct{}

	flowsOriginated, flowsCompleted atomic.Int64
	forwardedStages                 atomic.Int64
	remoteStages, localStages       atomic.Int64
	codeFetches, objectFetches      atomic.Int64
	percolateBytes                  atomic.Int64
	evictions, recoveredFlows       atomic.Int64
	staleCompletions                atomic.Int64
	rehomedObjects, promotedObjects atomic.Int64

	traces *flowTraces
	closed atomic.Bool
}

// now reads the node's clock.
func (n *Node) now() clock.Nanos { return n.clock() }

// NewNode boots a node: its own litlx.System and serve.Server, wired to
// the transport, initially a cluster of one. Close it with Close.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("cluster: Config.Transport is required")
	}
	if cfg.System.Locales <= 0 {
		cfg.System.Locales = 4
	}
	n := &Node{
		self:    cfg.Transport.Self(),
		t:       cfg.Transport,
		locales: cfg.System.Locales,
		tenants: make(map[string]*Tenant),
		pending: make(map[uint64]*pendingFlow),
		clock:   cfg.Clock,
		detCfg:  cfg.Detect,
		recCfg:  cfg.Recover,
	}
	if n.clock == nil {
		n.clock = clock.Now
	}
	n.pipes.Store(&map[uint64]*Pipeline{})
	n.sweep = time.AfterFunc(time.Hour, n.sweepPending) // idle until arm sets it
	n.sweep.Stop()
	if n.detCfg.Misses <= 0 {
		n.detCfg.Misses = 3
	}
	if n.recCfg.FlowTimeout == 0 {
		n.recCfg.FlowTimeout = 5 * time.Second
	}
	if n.recCfg.MaxAttempts <= 0 {
		n.recCfg.MaxAttempts = 3
	}
	if cfg.TraceFlows {
		n.traces = newFlowTraces(n.self)
	}
	sys, err := litlx.New(cfg.System)
	if err != nil {
		return nil, err
	}
	n.sys = sys
	n.srv = serve.New(sys, cfg.Serve)
	n.adopt(memberMsg{Members: map[string]string{string(n.self): cfg.Transport.Addr()}})
	n.registerHandlers()
	if n.detCfg.Every > 0 {
		n.detectStop = make(chan struct{})
		n.detectDone = make(chan struct{})
		go n.detectorLoop()
	}
	return n, nil
}

// Self returns the node's transport identity.
func (n *Node) Self() parcel.NodeID { return n.self }

// System returns the node's litlx runtime.
func (n *Node) System() *litlx.System { return n.sys }

// Serve returns the node's serve.Server.
func (n *Node) Serve() *serve.Server { return n.srv }

// Transport returns the node's transport.
func (n *Node) Transport() parcel.Transport { return n.t }

// Epoch returns the node's current membership epoch.
func (n *Node) Epoch() uint64 { return n.view.Load().Epoch }

// Members lists the current member ids, sorted.
func (n *Node) Members() []parcel.NodeID {
	ids := n.view.Load().ids()
	slices.Sort(ids)
	return ids
}

// Ring returns the node's current ring. Rings are immutable; membership
// changes install a fresh one.
func (n *Node) Ring() *Ring { return n.view.Load().ring }

// OwnedLocales returns the contiguous locale range this node owns.
func (n *Node) OwnedLocales() []int { return n.Ring().Owned(n.self) }

// registerHandlers installs the cluster protocol on the transport.
func (n *Node) registerHandlers() {
	handleMsg(n, "cluster.join", n.handleJoin)
	handleMsg(n, "cluster.members", n.handleMembers)
	n.t.Handle("cluster.stage", n.handleStage)
	n.t.Handle("cluster.complete", n.handleComplete)
	handleMsg(n, "cluster.fetch", n.handleFetch)
	n.t.Handle("cluster.stats", n.handleStats)
	handleMsg(n, "cluster.trace", n.handleTrace)
	n.t.Handle("cluster.ping", n.handlePing)
}

// handleMsg installs the handler of a control message: h sees the body
// decoded as a T, and a malformed body fails the parcel.
func handleMsg[T any](n *Node, method string, h func(T) ([]byte, error)) {
	n.t.Handle(method, func(_ parcel.NodeID, body []byte) ([]byte, error) {
		m, err := decode[T](body)
		if err != nil {
			return nil, err
		}
		return h(m)
	})
}

// handlePing answers a failure-detector probe. Reaching this handler is
// the proof of life; the body is ignored and the reply is the node id.
func (n *Node) handlePing(_ parcel.NodeID, _ []byte) ([]byte, error) {
	return []byte(n.self), nil
}

// Join dials the member at seedAddr and enters its cluster: the seed
// admits this node under a fresh epoch, replies with the member list,
// and broadcasts it to everyone else. Routing switches to the new ring
// the moment the list installs.
func (n *Node) Join(seedAddr string) error {
	if n.closed.Load() {
		return ErrNodeClosed
	}
	seed, err := n.t.Dial(seedAddr)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", seedAddr, err)
	}
	reply, err := n.t.Call(seed, "cluster.join", encode(joinMsg{ID: string(n.self), Addr: n.t.Addr()}))
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", seedAddr, err)
	}
	ml, err := decode[memberMsg](reply)
	if err != nil {
		return fmt.Errorf("cluster: join %s: bad member list: %w", seedAddr, err)
	}
	// Force: a node rejoining after its eviction, or coming from another
	// cluster, may hold a higher (diverged) epoch than this one; the join
	// reply is authoritative for it.
	n.install(ml, true)
	return nil
}

// view is one immutable membership snapshot: the member list with its
// epoch, and the ring that list implies.
type view struct {
	memberMsg
	ring *Ring
}

// membership is one change adopt made: the views before and after, and
// the members it dropped (never this node).
type membership struct {
	old, cur *view
	dropped  []parcel.NodeID
}

// ids lists the member ids in no order.
func (ml memberMsg) ids() []parcel.NodeID {
	ids := make([]parcel.NodeID, 0, len(ml.Members))
	for id := range ml.Members {
		ids = append(ids, parcel.NodeID(id))
	}
	return ids
}

// next copies the view's member list under the next epoch, for a
// change to edit: a stored view never changes.
func (v *view) next() memberMsg {
	members := make(map[string]string, len(v.Members)+1)
	maps.Copy(members, v.Members)
	return memberMsg{Epoch: v.Epoch + 1, Members: members}
}

// adopt makes ml the node's view — the one place the view changes — and
// returns the change for settle. Callers hold n.mu, except NewNode,
// which runs before anything else can.
func (n *Node) adopt(ml memberMsg) membership {
	c := membership{old: n.view.Load(), cur: &view{memberMsg: ml, ring: NewRing(n.locales, ml.ids())}}
	n.view.Store(c.cur)
	if c.old != nil { // nil only in NewNode
		for id := range c.old.Members {
			if _, ok := ml.Members[id]; !ok && id != string(n.self) {
				c.dropped = append(c.dropped, parcel.NodeID(id))
			}
		}
	}
	return c
}

// settle follows an adopted change once n.mu is released: it dials the
// members this node has no route to yet, so stage parcels can flow to
// everyone; recovers each dropped member exactly as if this node's own
// detector had evicted it — a survivor that learns of a death from a
// peer's broadcast still takes over the globals and re-routes the
// pending flows the dead node held; and re-syncs replica placement off
// this goroutine.
func (n *Node) settle(c membership) {
	peers := n.t.Peers()
	for id, addr := range c.cur.Members {
		if nid := parcel.NodeID(id); nid != n.self && !slices.Contains(peers, nid) {
			_, _ = n.t.Dial(addr)
		}
	}
	for _, id := range c.dropped {
		n.recoverAfter(id, c.old.ring, c.cur.ring)
	}
	go n.syncReplicas()
}

// handleJoin admits a joiner: adopt the list with it added under the
// next epoch, settle, reply with the list, and broadcast it to everyone
// else.
func (n *Node) handleJoin(jr joinMsg) ([]byte, error) {
	if jr.ID == "" || jr.Addr == "" {
		return nil, errors.New("cluster: join without id or address")
	}
	n.mu.Lock()
	ml := n.view.Load().next()
	ml.Members[jr.ID] = jr.Addr
	c := n.adopt(ml)
	n.mu.Unlock()
	n.settle(c)
	return n.broadcast(c.cur.memberMsg, jr.ID), nil
}

// broadcast sends a member list to every member but this node and skip,
// and returns its encoding (the join reply). Send hands its body over,
// so every Send gets a copy of its own.
func (n *Node) broadcast(ml memberMsg, skip string) []byte {
	payload := encode(ml)
	for id := range ml.Members {
		if id != string(n.self) && id != skip {
			_ = n.t.Send(parcel.NodeID(id), "cluster.members", bytes.Clone(payload))
		}
	}
	return payload
}

// handleMembers installs a broadcast member list if it is fresher than
// what this node holds. Install dials and may fetch, so it runs off the
// delivery goroutine; the epoch gate orders racing installs.
func (n *Node) handleMembers(ml memberMsg) ([]byte, error) {
	go n.install(ml, false)
	return nil, nil
}

// install adopts a member list newer than the node's view (force skips
// the epoch gate — the join path, where the reply is authoritative) and
// settles the change.
func (n *Node) install(ml memberMsg, force bool) {
	n.mu.Lock()
	if !force && ml.Epoch <= n.view.Load().Epoch {
		n.mu.Unlock()
		return
	}
	c := n.adopt(ml)
	n.mu.Unlock()
	n.settle(c)
}

// ownerOf routes a (tenant, key) pair: the key mixes onto a global
// locale, the ring names its owner. An empty ring (impossible — a node
// is always its own member) degrades to self.
func (n *Node) ownerOf(tenantHash, key uint64) (parcel.NodeID, int) {
	ring := n.Ring()
	loc := localeMix(tenantHash, key, ring.Locales())
	id, ok := ring.Owner(loc)
	if !ok {
		return n.self, loc
	}
	return id, loc
}

// Stats is one node's cluster-layer accounting.
type Stats struct {
	Node         string
	Addr         string
	Members      int
	Epoch        uint64
	OwnedLocales int
	// FlowsOriginated counts flows submitted through this node's cluster
	// pipelines; FlowsCompleted those that have resolved here.
	FlowsOriginated, FlowsCompleted int64
	// ForwardedStages counts stage parcels this node sent to another
	// node, one per successful send — at admission, at a stage boundary
	// of a flow it originated, or onward from a flow that arrived here.
	ForwardedStages int64
	// RemoteStages and LocalStages count the stages this node ran for
	// flows that arrived by stage parcel: the entry stage plus each
	// stage the node then chained locally. RemoteStages covers other
	// nodes' flows; LocalStages flows the ring routed back to this
	// node, their origin. Stages an origin runs before it first ships
	// the flow are not counted.
	RemoteStages, LocalStages int64
	// CodeFetches / ObjectFetches count percolation transfers this node
	// pulled over the wire (single-flight: at most one per image or
	// object); PercolateBytes is their payload volume.
	CodeFetches, ObjectFetches int64
	PercolateBytes             int64
	// Evictions counts members this node's failure detector declared
	// dead; RecoveredFlows counts recoveries that re-routed or resolved
	// a pending flow; StaleCompletions counts completion parcels dropped
	// by the flow-epoch gate (zombie executors finishing after their
	// eviction).
	Evictions, RecoveredFlows int64
	StaleCompletions          int64
	// RehomedObjects counts the tenant globals this node took over as
	// the new primary after an eviction, each once; PromotedObjects is
	// the subset it already held (its fetch had succeeded, typically as
	// a pre-warmed replica), so the takeover fetched nothing.
	RehomedObjects, PromotedObjects int64
	// Wire is the transport's own traffic accounting.
	Wire parcel.TransportStats
}

// Stats snapshots this node.
func (n *Node) Stats() Stats {
	v := n.view.Load()
	return Stats{
		Node:             string(n.self),
		Addr:             n.t.Addr(),
		Members:          len(v.Members),
		Epoch:            v.Epoch,
		OwnedLocales:     len(v.ring.Owned(n.self)),
		FlowsOriginated:  n.flowsOriginated.Load(),
		FlowsCompleted:   n.flowsCompleted.Load(),
		ForwardedStages:  n.forwardedStages.Load(),
		RemoteStages:     n.remoteStages.Load(),
		LocalStages:      n.localStages.Load(),
		CodeFetches:      n.codeFetches.Load(),
		ObjectFetches:    n.objectFetches.Load(),
		PercolateBytes:   n.percolateBytes.Load(),
		Evictions:        n.evictions.Load(),
		RecoveredFlows:   n.recoveredFlows.Load(),
		StaleCompletions: n.staleCompletions.Load(),
		RehomedObjects:   n.rehomedObjects.Load(),
		PromotedObjects:  n.promotedObjects.Load(),
		Wire:             n.t.Stats(),
	}
}

// handleStats serves this node's Stats to a peer.
func (n *Node) handleStats(_ parcel.NodeID, _ []byte) ([]byte, error) {
	return encode(n.Stats()), nil
}

// ClusterStats collects Stats from every member (self included),
// sorted by node id. Unreachable members are skipped.
func (n *Node) ClusterStats() []Stats {
	out := []Stats{n.Stats()}
	for _, id := range n.Members() {
		if id == n.self {
			continue
		}
		reply, err := n.t.Call(id, "cluster.stats", nil)
		if err != nil {
			continue
		}
		if st, err := decode[Stats](reply); err == nil {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Close shuts the node: the failure detector stops, pending forwarded
// flows resolve as rejected (so no origin-side caller hangs on a
// completion that cannot arrive), then the server, system, and
// transport shut down in that order.
func (n *Node) Close() {
	if n.closed.Swap(true) {
		return
	}
	if n.detectStop != nil {
		close(n.detectStop)
		<-n.detectDone
	}
	n.pendingMu.Lock()
	pend := n.pending
	n.pending = make(map[uint64]*pendingFlow)
	n.sweep.Stop()
	n.pendingMu.Unlock()
	for _, pf := range pend {
		pf.flow.Finish(serve.Result{Status: serve.StatusRejected, Err: ErrNodeClosed})
	}
	n.srv.Close()
	n.sys.Close()
	_ = n.t.Close()
}
