package parcel

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// This file is the transport fault injector. A failure-domain scenario
// (internal/cluster) needs a cluster to lose parcels, split into
// partitions, and watch a node die — without the test depending on
// real sockets breaking on cue. Faults is that knob box: one instance
// is shared by every node of a cluster, and Wrap puts it in front of
// each node's transport, in-process or TCP alike, so every Send and
// Call consults it before the transport sees the parcel. All random
// decisions come from one seeded stream under a lock, so a scenario
// replays the same drops for the same seed.

// ErrPartitioned reports a send or call across an injected partition,
// or to/from a crashed node. Callers see it exactly like an unreachable
// peer — which is the point: an injected failure must be
// indistinguishable from a real one.
var ErrPartitioned = fmt.Errorf("%w (injected fault)", ErrUnknownPeer)

// Faults injects transport failures deterministically into the
// transports it wraps. Its methods are safe for concurrent use.
type Faults struct {
	mu      sync.Mutex
	rng     *stats.RNG
	drop    float64 // probability a one-way Send is silently lost
	cut     map[NodeID]map[NodeID]bool
	crashed map[NodeID]bool
}

// NewFaults creates an injector whose drops replay deterministically
// for the seed.
func NewFaults(seed uint64) *Faults {
	return &Faults{
		rng:     stats.NewRNG(seed),
		cut:     make(map[NodeID]map[NodeID]bool),
		crashed: make(map[NodeID]bool),
	}
}

// Wrap returns t with the injector in front of it: a Send or Call
// across a partition, or to or from a crashed node, fails with
// ErrPartitioned, and a dropped Send returns nil without reaching t.
// Every other method is t's own.
func (f *Faults) Wrap(t Transport) Transport { return faulty{t, f} }

type faulty struct {
	Transport
	f *Faults
}

func (t faulty) Send(dest NodeID, method string, body []byte) error {
	if t.f.blocked(t.Self(), dest) {
		return fmt.Errorf("%w: %s", ErrPartitioned, dest)
	}
	if t.f.dropSend() {
		return nil // lost on the wire: the sender cannot tell
	}
	return t.Transport.Send(dest, method, body)
}

func (t faulty) Call(dest NodeID, method string, body []byte) ([]byte, error) {
	if t.f.blocked(t.Self(), dest) {
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, dest)
	}
	return t.Transport.Call(dest, method, body)
}

// SetDrop sets the probability in [0,1] that a one-way Send is silently
// lost on the wire. Calls are never dropped — a lost call surfaces as a
// transport error or timeout, not silence.
func (f *Faults) SetDrop(p float64) {
	f.mu.Lock()
	f.drop = p
	f.mu.Unlock()
}

// Partition cuts the link between a and b in both directions.
func (f *Faults) Partition(a, b NodeID) {
	f.mu.Lock()
	f.cutLocked(a, b)
	f.cutLocked(b, a)
	f.mu.Unlock()
}

func (f *Faults) cutLocked(a, b NodeID) {
	m := f.cut[a]
	if m == nil {
		m = make(map[NodeID]bool)
		f.cut[a] = m
	}
	m[b] = true
}

// Heal restores the link between a and b.
func (f *Faults) Heal(a, b NodeID) {
	f.mu.Lock()
	delete(f.cut[a], b)
	delete(f.cut[b], a)
	f.mu.Unlock()
}

// Crash makes the node unreachable in both directions — every delivery
// to or from it fails — without touching the node's own state, so a
// crashed node keeps running as a zombie: exactly the failure mode a
// recovery layer has to survive.
func (f *Faults) Crash(id NodeID) {
	f.mu.Lock()
	f.crashed[id] = true
	f.mu.Unlock()
}

// Revive undoes Crash.
func (f *Faults) Revive(id NodeID) {
	f.mu.Lock()
	delete(f.crashed, id)
	f.mu.Unlock()
}

// blocked reports whether delivery from one node to another is
// currently impossible (partition or crash at either end).
func (f *Faults) blocked(from, to NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[from] || f.crashed[to] || f.cut[from][to]
}

// dropSend decides (from the seeded stream) whether one Send is lost.
func (f *Faults) dropSend() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drop > 0 && f.rng.Float64() < f.drop
}
