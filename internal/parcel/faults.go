package parcel

import (
	"fmt"
	"sync"
	"time"
)

// This file is the transport fault injector. A failure-domain scenario
// (internal/cluster) needs a cluster to lose parcels, suffer delayed
// delivery, split into partitions, and watch a node die — without the
// test depending on real sockets breaking on cue. Faults is that knob
// box: one instance is shared by every transport of a cluster (the
// Fabric holds it for in-process nodes; a netparcel Transport accepts
// one via InjectFaults), and every delivery consults it. All random
// decisions come from one seeded splitmix64 stream under a lock, so a
// scenario replays the same drops for the same seed.

// ErrPartitioned reports a send or call across an injected partition,
// or to/from a crashed node. Callers see it exactly like an unreachable
// peer — which is the point: an injected failure must be
// indistinguishable from a real one.
var ErrPartitioned = fmt.Errorf("%w (injected fault)", ErrUnknownPeer)

// Faults injects transport failures deterministically. The zero value
// injects nothing; methods are safe for concurrent use. A nil *Faults
// is inert, so transports pay one pointer check when no scenario is
// attached.
type Faults struct {
	mu      sync.Mutex
	rng     uint64
	drop    float64       // probability a one-way Send is silently lost
	delay   time.Duration // max injected delivery delay for Sends
	cut     map[NodeID]map[NodeID]bool
	crashed map[NodeID]bool

	// Dropped / Delayed / Blocked count the injector's decisions, for
	// scenario reports.
	dropped, delayed, blocked int64
}

// NewFaults creates an injector whose random decisions (drop, delay
// jitter) replay deterministically for the seed.
func NewFaults(seed uint64) *Faults {
	if seed == 0 {
		seed = 1
	}
	return &Faults{
		rng:     seed,
		cut:     make(map[NodeID]map[NodeID]bool),
		crashed: make(map[NodeID]bool),
	}
}

// next draws from the seeded splitmix64 stream (callers hold f.mu).
func (f *Faults) next() uint64 {
	f.rng += 0x9E3779B97F4A7C15
	x := f.rng
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// SetDrop sets the probability in [0,1] that a one-way Send is silently
// lost on the wire. Calls are never dropped — a lost call surfaces as a
// transport error or timeout, not silence.
func (f *Faults) SetDrop(p float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.drop = p
	f.mu.Unlock()
}

// SetDelay sets the maximum injected delivery delay for Sends; each
// delayed parcel draws a uniform fraction of it from the seeded stream.
func (f *Faults) SetDelay(d time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// Partition cuts the link between a and b in both directions.
func (f *Faults) Partition(a, b NodeID) {
	if f == nil {
		return
	}
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
	if f == nil {
		return
	}
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
	if f == nil {
		return
	}
	f.mu.Lock()
	f.crashed[id] = true
	f.mu.Unlock()
}

// Revive undoes Crash.
func (f *Faults) Revive(id NodeID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.crashed, id)
	f.mu.Unlock()
}

// Crashed reports whether the node is currently crash-injected.
func (f *Faults) Crashed(id NodeID) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[id]
}

// Blocked reports whether delivery from one node to another is
// currently impossible (partition or crash at either end), counting the
// decision.
func (f *Faults) Blocked(from, to NodeID) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed[from] || f.crashed[to] || f.cut[from][to] {
		f.blocked++
		return true
	}
	return false
}

// DropSend decides (from the seeded stream) whether one Send is lost.
func (f *Faults) DropSend() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.drop <= 0 {
		return false
	}
	if float64(f.next()>>11)/float64(1<<53) < f.drop {
		f.dropped++
		return true
	}
	return false
}

// SendDelay draws the injected delivery delay for one Send (0 when
// delay injection is off).
func (f *Faults) SendDelay() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.delay <= 0 {
		return 0
	}
	f.delayed++
	return time.Duration(f.next() % uint64(f.delay))
}

// FaultStats reports the injector's decision counts.
type FaultStats struct {
	Dropped, Delayed, Blocked int64
}

// Stats snapshots the injector's decision counters.
func (f *Faults) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultStats{Dropped: f.dropped, Delayed: f.delayed, Blocked: f.blocked}
}
