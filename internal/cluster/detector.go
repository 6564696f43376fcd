package cluster

import (
	"time"

	"repro/internal/parcel"
	"repro/internal/trace"
)

// This file is the failure domain: a heartbeat detector that turns a
// dead member into an eviction, and the recovery that runs behind one —
// re-routing the pending flows the dead node held and re-homing the
// tenant globals whose home locales it owned onto the survivors.
// Detection is deliberately per-node (no consensus): every member
// probes every other, an eviction is a local membership change
// broadcast like any other, and the epoch gate orders racing
// observations the same way it orders racing joins. What must NOT be
// per-node — resolving a flow exactly once — never rests on the
// detector: it rests on the origin's pending-map pop plus the flow
// epoch (flow.go).

// probeResult is one heartbeat outcome.
type probeResult struct {
	id parcel.NodeID
	ok bool
}

// detectorLoop probes every peer each Detect.Every and evicts a member
// after Detect.Misses consecutive failures. Probes run on their own
// goroutines so one wedged Call (a TCP peer that stopped reading)
// cannot stall detection of the others; a peer with a probe still in
// flight is not probed again, so misses count completed failures, not
// slow answers.
func (n *Node) detectorLoop() {
	defer close(n.detectDone)
	misses := make(map[parcel.NodeID]int)
	inflight := make(map[parcel.NodeID]bool)
	results := make(chan probeResult, 16)
	tick := time.NewTicker(n.detCfg.Every)
	defer tick.Stop()
	for {
		select {
		case <-n.detectStop:
			return
		case pr := <-results:
			delete(inflight, pr.id)
			if pr.ok {
				delete(misses, pr.id)
				continue
			}
			misses[pr.id]++
			if misses[pr.id] >= n.detCfg.Misses {
				delete(misses, pr.id)
				n.evict(pr.id)
			}
		case <-tick.C:
			live := make(map[parcel.NodeID]bool)
			for _, id := range n.Members() {
				live[id] = true
				if id == n.self || inflight[id] {
					continue
				}
				inflight[id] = true
				go func(id parcel.NodeID) {
					_, err := n.t.Call(id, "cluster.ping", nil)
					select {
					case results <- probeResult{id: id, ok: err == nil}:
					case <-n.detectStop:
					}
				}(id)
			}
			for id := range misses {
				if !live[id] {
					delete(misses, id)
				}
			}
		}
	}
}

// evict declares a member dead: adopt the list without it under the
// next epoch, broadcast the shrunken list, and settle — recovering what
// the dead node held. Re-entrant observations (the detector and a
// peer's broadcast both reporting the same death) collapse on the
// membership check.
func (n *Node) evict(dead parcel.NodeID) {
	n.mu.Lock()
	ml := n.view.Load().next()
	if _, ok := ml.Members[string(dead)]; !ok || dead == n.self {
		n.mu.Unlock()
		return
	}
	delete(ml.Members, string(dead))
	c := n.adopt(ml)
	n.mu.Unlock()
	n.evictions.Add(1)
	// Flow id 0 is never allocated (nextFlow starts at 1), so membership
	// events trace under it without colliding with any real flow.
	if n.traces != nil {
		n.traces.record(n.self, 0, trace.KindAdapt,
			"evicted %s after %d missed heartbeats; ring rebalanced onto %d members",
			dead, n.detCfg.Misses, len(c.cur.Members))
	}
	n.broadcast(c.cur.memberMsg, "")
	n.settle(c)
}

// recoverAfter runs the survivor-side recovery for one departed member:
//
//  1. every pending flow last shipped to the dead node is re-routed now
//     (the recovery sweep would catch it when it falls due; this removes
//     the wait, and re-arms the flow's one due time);
//  2. tenant globals whose home locale the dead node owned are taken
//     over by their new primary, each counted once there — promoted
//     when the node already holds its bytes (a pre-warmed replica),
//     fetched from a survivor otherwise.
//
// It runs on whichever goroutine observed the death (detector or
// membership broadcast), after all locks are released.
func (n *Node) recoverAfter(dead parcel.NodeID, oldRing, newRing *Ring) {
	n.pendingMu.Lock()
	var stranded []uint64
	for flow, pf := range n.pending {
		if pf.dest == dead {
			stranded = append(stranded, flow)
		}
	}
	n.pendingMu.Unlock()
	for _, flow := range stranded {
		go n.recoverFlow(flow, 0)
	}

	for _, t := range n.tenantList() {
		t.recoverGlobals(dead, oldRing, newRing)
	}
}
