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
// Membership is deliberately small: a joiner Calls "cluster.join" at
// any member, which bumps its epoch, admits the joiner, replies with
// the member list, and broadcasts it; a leaver Calls "cluster.leave"
// symmetrically, and the coordinating member broadcasts the shrunken
// list. Receivers install lists with a newer epoch and dial any members
// they cannot reach yet. The ring is a
// pure function of the member set, so agreement on the list is
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// Clock is the node's time source (default time.Now). The deadline
	// check on a stage parcel's arrival and recovery decisions read it,
	// so tests and scenario harnesses can steer shedding
	// deterministically; stages the node then chains locally are shed
	// by serve's own deadline check.
	Clock func() time.Time
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

	mu      sync.RWMutex
	members map[parcel.NodeID]string // id -> dialable address
	epoch   uint64
	ring    *Ring

	tenantsMu sync.RWMutex
	tenants   map[string]*Tenant
	pipes     map[uint64]*Pipeline // by pipeID

	// pending holds the records of flows this node originated and shipped
	// away; a completion parcel pops its entry exactly once, and the
	// recovery sweep re-routes entries whose executor died. sweep is the
	// one recovery timer, set for sweepAt (zero when not set); both
	// sweepAt and an entry's due time count from base, on the monotonic
	// clock.
	nextFlow  atomic.Uint64
	pendingMu sync.Mutex
	pending   map[uint64]*pendingFlow
	sweep     *time.Timer
	sweepAt   time.Duration
	base      time.Time

	clock  func() time.Time
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
	rehomedObjects                  atomic.Int64

	traces *flowTraces
	closed atomic.Bool
}

// now reads the node's clock.
func (n *Node) now() time.Time { return n.clock() }

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
		members: make(map[parcel.NodeID]string),
		tenants: make(map[string]*Tenant),
		pipes:   make(map[uint64]*Pipeline),
		pending: make(map[uint64]*pendingFlow),
		base:    time.Now(),
		clock:   cfg.Clock,
		detCfg:  cfg.Detect,
		recCfg:  cfg.Recover,
	}
	if n.clock == nil {
		n.clock = time.Now
	}
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
	n.members[n.self] = cfg.Transport.Addr()
	n.ring = NewRing(n.locales, []parcel.NodeID{n.self})
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
func (n *Node) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.epoch
}

// Members lists the current member ids, sorted.
func (n *Node) Members() []parcel.NodeID {
	n.mu.RLock()
	ids := make([]parcel.NodeID, 0, len(n.members))
	for id := range n.members {
		ids = append(ids, id)
	}
	n.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Ring returns the node's current ring. Rings are immutable; membership
// changes install a fresh one.
func (n *Node) Ring() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}

// OwnedLocales returns the contiguous locale range this node owns.
func (n *Node) OwnedLocales() []int { return n.Ring().Owned(n.self) }

// registerHandlers installs the cluster protocol on the transport.
func (n *Node) registerHandlers() {
	handleMsg(n, "cluster.join", n.handleJoin)
	handleMsg(n, "cluster.members", n.handleMembers)
	handleMsg(n, "cluster.leave", n.handleLeave)
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
	// Force: a node rejoining after a Leave may hold a higher (diverged)
	// epoch than the cluster; the join reply is authoritative for it.
	n.install(ml, true)
	return nil
}

// Leave departs the cluster and resets this node to a cluster of one.
// Like join, the departure is coordinated: one remaining member Calls
// back a fresh epoch after removing this node and broadcasts the new
// list, so the epoch gate orders the departure against any racing join
// broadcast (a bare announcement could arrive before the broadcast that
// first told a peer this node existed). In-flight stage parcels
// addressed here still execute; their completions return to their
// origins over the still-open transport.
func (n *Node) Leave() {
	body := encode(joinMsg{ID: string(n.self)})
	n.mu.Lock()
	peers := make([]parcel.NodeID, 0, len(n.members))
	for id := range n.members {
		if id != n.self {
			peers = append(peers, id)
		}
	}
	n.epoch++
	n.members = map[parcel.NodeID]string{n.self: n.t.Addr()}
	n.ring = NewRing(n.locales, []parcel.NodeID{n.self})
	n.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, id := range peers {
		if _, err := n.t.Call(id, "cluster.leave", body); err == nil {
			return
		}
	}
}

// handleJoin admits a joiner: bump the epoch, extend the member list,
// rebuild the ring, reply with the list, and broadcast it.
func (n *Node) handleJoin(jr joinMsg) ([]byte, error) {
	if jr.ID == "" || jr.Addr == "" {
		return nil, errors.New("cluster: join without id or address")
	}
	n.mu.Lock()
	n.members[parcel.NodeID(jr.ID)] = jr.Addr
	ml := n.reshapeLocked()
	n.mu.Unlock()
	n.dialMissing(ml.Members)
	go n.syncReplicas()
	return n.broadcast(ml, jr.ID), nil
}

// reshapeLocked follows a change to n.members (n.mu held): it bumps the
// epoch, rebuilds the ring, and returns the new member list.
func (n *Node) reshapeLocked() memberMsg {
	n.epoch++
	n.ring = NewRing(n.locales, memberIDs(n.members))
	ml := memberMsg{Epoch: n.epoch, Members: make(map[string]string, len(n.members))}
	for id, addr := range n.members {
		ml.Members[string(id)] = addr
	}
	return ml
}

// broadcast sends a member list to every member but this node and skip,
// and returns its encoding (the join and leave replies). Send hands its
// body over, so every Send gets a copy of its own.
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

// handleLeave coordinates a departure, mirroring handleJoin: remove the
// leaver, bump the epoch, rebuild the ring, and broadcast the fresh
// member list so every remaining member converges through the same
// epoch gate.
func (n *Node) handleLeave(jr joinMsg) ([]byte, error) {
	n.mu.Lock()
	if _, ok := n.members[parcel.NodeID(jr.ID)]; !ok {
		n.mu.Unlock()
		return nil, nil
	}
	delete(n.members, parcel.NodeID(jr.ID))
	ml := n.reshapeLocked()
	n.mu.Unlock()
	go n.syncReplicas()
	return n.broadcast(ml, ""), nil
}

// install adopts a member list (force skips the epoch freshness gate —
// the join path, where the reply is authoritative) and dials any member
// this node cannot reach yet, so stage parcels can flow to everyone.
// Members the new list dropped are recovered exactly as if this node's
// own detector had evicted them — a survivor that learns of a death
// from a peer's broadcast still takes over the globals and re-routes
// the pending flows the dead node held. Replica placement re-syncs on
// every ring change.
func (n *Node) install(ml memberMsg, force bool) {
	n.mu.Lock()
	if !force && ml.Epoch <= n.epoch {
		n.mu.Unlock()
		return
	}
	oldRing := n.ring
	var removed []parcel.NodeID
	for id := range n.members {
		if _, ok := ml.Members[string(id)]; !ok && id != n.self {
			removed = append(removed, id)
		}
	}
	n.epoch = ml.Epoch
	n.members = make(map[parcel.NodeID]string, len(ml.Members))
	for id, addr := range ml.Members {
		n.members[parcel.NodeID(id)] = addr
	}
	n.ring = NewRing(n.locales, memberIDs(n.members))
	newRing := n.ring
	n.mu.Unlock()
	n.dialMissing(ml.Members)
	for _, id := range removed {
		n.recoverAfter(id, oldRing, newRing)
	}
	go n.syncReplicas()
}

// dialMissing opens transport routes to members this node has no peer
// connection for yet.
func (n *Node) dialMissing(members map[string]string) {
	have := make(map[parcel.NodeID]bool)
	for _, id := range n.t.Peers() {
		have[id] = true
	}
	for id, addr := range members {
		nid := parcel.NodeID(id)
		if nid == n.self || have[nid] {
			continue
		}
		_, _ = n.t.Dial(addr)
	}
}

// memberIDs extracts the ids of a member map (any order; the ring
// sorts).
func memberIDs(m map[parcel.NodeID]string) []parcel.NodeID {
	ids := make([]parcel.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return ids
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
	// eviction); RehomedObjects counts tenant globals this node took
	// over as the new primary after an eviction.
	Evictions, RecoveredFlows int64
	StaleCompletions          int64
	RehomedObjects            int64
	// Wire is the transport's own traffic accounting.
	Wire parcel.TransportStats
}

// Stats snapshots this node.
func (n *Node) Stats() Stats {
	n.mu.RLock()
	members, epoch, ring := len(n.members), n.epoch, n.ring
	n.mu.RUnlock()
	return Stats{
		Node:             string(n.self),
		Addr:             n.t.Addr(),
		Members:          members,
		Epoch:            epoch,
		OwnedLocales:     len(ring.Owned(n.self)),
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
