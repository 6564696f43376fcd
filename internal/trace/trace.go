// Package trace defines the event record the serve and cluster layers
// trace with and its deterministic total order. Each store keeps its
// own events where its reader finds them (a serve flow's FlowTrace, the
// cluster's per-flow records) and merges them on read with Merge, so a
// replayed scenario renders the same timeline.
//
// The paper's Section 4.2 calls for a monitoring methodology whose
// records feed the adaptive compiler and runtime; this package is the
// record format those monitors share.
package trace

import (
	"fmt"
	"sort"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds. Most mark the lifecycle edges of one served request or
// flow: admission onto a shard queue, drain into a batch, a steal onto
// another shard, a code or data percolation, dispatch onto an executing
// SGT, a pipeline stage hop, and the terminal outcomes. KindAdapt marks
// a controller decision that touched the flow.
const (
	KindSteal Kind = iota
	KindPercolate
	KindAdapt
	KindAdmit
	KindBatch
	KindDispatch
	KindStageHop
	KindShed
	KindFail
	KindComplete
	// KindRemoteHop marks a flow stage crossing a node boundary: the
	// cluster layer shipped the remainder of a pipeline to another
	// machine over a parcel transport. Events on both sides carry the
	// flow id, so traces stitch across nodes.
	KindRemoteHop
)

var kindNames = [...]string{
	"steal", "percolate", "adapt", "admit", "batch", "dispatch",
	"stage-hop", "shed", "fail", "complete", "remote-hop",
}

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. Time is in unix nanoseconds.
//
// Producer and Seq pin the event's place in the total order: Producer
// is the emitting producer's id and Seq its per-producer append
// sequence, both stamped by the store that appends the event. Merge
// breaks equal-Time ties by (Producer, Seq), so a merged timeline is
// deterministic even when many producers share one timestamp.
type Event struct {
	Time     int64
	Kind     Kind
	Locale   int    // node or worker the event occurred on
	Producer int    // emitting producer id (shard, node)
	Seq      uint64 // per-producer append sequence
	Arg      int64  // event-specific argument (packed stage and element)
	Label    string // optional, interned by the caller
}

// Before reports whether a precedes b in the merged total order: by
// Time, then by Producer, then by per-producer Seq. The tie-breaks are
// what make a merge of many producer streams deterministic — two
// producers stamping the same timestamp (coarse or virtual clocks)
// always interleave the same way, so a replayed scenario's
// merged trace is bit-identical run to run.
func Before(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Producer != b.Producer {
		return a.Producer < b.Producer
	}
	return a.Seq < b.Seq
}

// Merge combines per-producer event streams into one slice in the
// deterministic total order defined by Before. Streams need not be
// pre-sorted and may interleave producers; the result is a fresh slice.
func Merge(streams ...[]Event) []Event {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	if n == 0 {
		return nil
	}
	all := make([]Event, 0, n)
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return Before(all[i], all[j]) })
	return all
}
