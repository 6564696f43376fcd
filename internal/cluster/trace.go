package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/parcel"
	"repro/internal/trace"
)

// This file stitches flow traces across nodes. The serve layer's
// FlowTrace (PR 6) records a flow's lifecycle inside one process; once
// flows hop machines, each node additionally records the cross-node
// edges it sees — hand-offs shipped, stages executed, completions
// received — keyed by (origin, flow id). StitchFlow asks every member
// for its record of one flow and merges them into the deterministic
// total order of trace.Before, so "where did this flow actually run?"
// has a cluster-wide answer.

// maxFlowTraces bounds how many flows one node retains records for;
// the oldest record is evicted when a new flow arrives at the cap.
const maxFlowTraces = 1024

// maxTraceEvents bounds one flow's record.
const maxTraceEvents = 256

type traceKey struct {
	origin parcel.NodeID
	flow   uint64
}

type flowRec struct {
	events []trace.Event
	seq    uint64
}

// flowTraces is one node's bounded per-flow event store. A nil
// *flowTraces (TraceFlows off) drops everything at one pointer check;
// callers make that check before calling record, so tracing off does
// not even box the label arguments.
type flowTraces struct {
	producer int // stable per-node producer id for merge tie-breaks

	mu    sync.Mutex
	recs  map[traceKey]*flowRec
	order []traceKey // FIFO eviction
}

func newFlowTraces(self parcel.NodeID) *flowTraces {
	return &flowTraces{
		producer: int(fnv64(string(self)) % (1 << 30)),
		recs:     make(map[traceKey]*flowRec),
	}
}

// record appends one cross-node event to the flow's record, its label
// formatted from format and args only when the store is on.
func (ft *flowTraces) record(origin parcel.NodeID, flow uint64, kind trace.Kind, format string, args ...any) {
	if ft == nil {
		return
	}
	label := fmt.Sprintf(format, args...)
	now := time.Now().UnixNano()
	key := traceKey{origin: origin, flow: flow}
	ft.mu.Lock()
	rec, ok := ft.recs[key]
	if !ok {
		if len(ft.order) >= maxFlowTraces {
			oldest := ft.order[0]
			ft.order = ft.order[1:]
			delete(ft.recs, oldest)
		}
		rec = &flowRec{}
		ft.recs[key] = rec
		ft.order = append(ft.order, key)
	}
	if len(rec.events) < maxTraceEvents {
		rec.events = append(rec.events, trace.Event{
			Time: now, Kind: kind, Producer: ft.producer, Seq: rec.seq, Label: label,
		})
		rec.seq++
	}
	ft.mu.Unlock()
}

// snapshot copies one flow's events.
func (ft *flowTraces) snapshot(origin parcel.NodeID, flow uint64) []trace.Event {
	if ft == nil {
		return nil
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	rec, ok := ft.recs[traceKey{origin: origin, flow: flow}]
	if !ok {
		return nil
	}
	return append([]trace.Event(nil), rec.events...)
}

// TracedFlows lists the flow ids this node originated and holds
// cross-node records for, oldest first — the entry points StitchFlow
// takes (empty unless Config.TraceFlows is on).
func (n *Node) TracedFlows() []uint64 {
	ft := n.traces
	if ft == nil {
		return nil
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var out []uint64
	for _, key := range ft.order {
		if key.origin == n.self {
			out = append(out, key.flow)
		}
	}
	return out
}

// FlowEvents returns this node's recorded cross-node events for one
// flow (empty unless Config.TraceFlows is on).
func (n *Node) FlowEvents(origin parcel.NodeID, flow uint64) []trace.Event {
	return n.traces.snapshot(origin, flow)
}

// StitchFlow collects every member's record of a flow this node
// originated and merges them into one deterministic timeline.
// Unreachable members contribute nothing.
func (n *Node) StitchFlow(flow uint64) []trace.Event {
	streams := [][]trace.Event{n.traces.snapshot(n.self, flow)}
	req := encode(traceMsg{Origin: string(n.self), Flow: flow})
	for _, id := range n.Members() {
		if id == n.self {
			continue
		}
		reply, err := n.t.Call(id, "cluster.trace", req)
		if err != nil {
			continue
		}
		if evs, err := decode[[]trace.Event](reply); err == nil && len(evs) > 0 {
			streams = append(streams, evs)
		}
	}
	return trace.Merge(streams...)
}

// handleTrace serves this node's record of one flow to a stitching
// peer.
func (n *Node) handleTrace(tm traceMsg) ([]byte, error) {
	return encode(n.traces.snapshot(parcel.NodeID(tm.Origin), tm.Flow)), nil
}
