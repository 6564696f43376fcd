package cluster

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/mem"
	"repro/internal/parcel"
	"repro/internal/trace"
)

// This file is the failure domain: a heartbeat detector that turns a
// dead member into an eviction, and the recovery that runs behind one —
// re-routing the pending flows the dead node held and re-homing the
// global objects and mem.Space locales it owned onto the survivors.
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

// evict declares a member dead: remove it, bump the epoch, rebuild the
// ring, broadcast the shrunken list, and recover what the dead node
// held. Re-entrant observations (the detector and a peer's broadcast
// both reporting the same death) collapse on the membership check.
func (n *Node) evict(dead parcel.NodeID) {
	n.mu.Lock()
	if _, ok := n.members[dead]; !ok || dead == n.self {
		n.mu.Unlock()
		return
	}
	oldRing := n.ring
	delete(n.members, dead)
	ml := n.reshapeLocked()
	newRing := n.ring
	n.mu.Unlock()
	n.evictions.Add(1)
	// Flow id 0 is never allocated (nextFlow starts at 1), so membership
	// events trace under it without colliding with any real flow.
	if n.traces != nil {
		n.traces.record(n.self, 0, trace.KindAdapt,
			"evicted %s after %d missed heartbeats; ring rebalanced onto %d members",
			dead, n.detCfg.Misses, len(ml.Members))
	}
	n.broadcast(ml, "")
	n.recoverAfter(dead, oldRing, newRing)
	n.syncReplicas()
}

// recoverAfter runs the survivor-side recovery for one departed member:
//
//  1. every pending flow last shipped to the dead node is re-routed now
//     (the recovery sweep would catch it when it falls due; this removes
//     the wait, and re-arms the flow's one due time);
//  2. tenant globals whose home locale the dead node owned are taken
//     over by their new primary — promoted from a local replica when
//     replication had pre-warmed one, fetched from a survivor otherwise;
//  3. the local mem.Space directory re-homes every object homed on the
//     lost arc, through adapt.LocalityManager.ReHome — valid replicas
//     promote for free, the rest rebuild at the fallback locale.
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

	n.tenantsMu.RLock()
	tenants := make([]*Tenant, 0, len(n.tenants))
	for _, t := range n.tenants {
		tenants = append(tenants, t)
	}
	n.tenantsMu.RUnlock()
	for _, t := range tenants {
		t.recoverGlobals(dead, oldRing, newRing)
	}

	lost := oldRing.Owned(dead)
	if len(lost) == 0 {
		return
	}
	lostLocales := make([]mem.Locale, len(lost))
	for i, l := range lost {
		lostLocales[i] = mem.Locale(l)
	}
	lm := adapt.NewLocalityManager(n.sys.Space)
	actions, _ := lm.ReHome(lostLocales, n.fallbackLocale(newRing, lost))
	if len(actions) > 0 {
		n.rehomedObjects.Add(int64(len(actions)))
		if n.traces != nil {
			n.traces.record(n.self, 0, trace.KindAdapt,
				"rehomed %d objects off locales lost with %s", len(actions), dead)
		}
	}
}

// fallbackLocale picks where objects with no surviving replica rebuild:
// the first locale this node owns on the new ring, else the first
// locale outside the lost arc, else 0.
func (n *Node) fallbackLocale(newRing *Ring, lost []int) mem.Locale {
	if owned := newRing.Owned(n.self); len(owned) > 0 {
		return mem.Locale(owned[0])
	}
	dead := make(map[int]bool, len(lost))
	for _, l := range lost {
		dead[l] = true
	}
	for l := 0; l < n.locales; l++ {
		if !dead[l] {
			return mem.Locale(l)
		}
	}
	return 0
}
