package serve

// This file is the serve layer's observability core — the paper's
// Section 4.2 monitoring methodology applied to the serving path:
// cheap, always-on instruments whose records explain, after the fact,
// why a flow waited, hopped, or died.
//
//   - flow tracing: every submission may carry a sampled trace context
//     (*FlowTrace); each lifecycle edge — admit, batch-form, steal,
//     dispatch, stage hop, percolation, shed/fail/complete — appends a
//     trace.Event attributed to the shard and locale it happened on,
//     and the per-flow record merges into a span tree readable as text
//     or JSON;
//   - the flight recorder: a bounded ring of recently finished flow
//     traces that force-retains any flow ending in shed, failure, or
//     rejection, so the interesting endings are still there when
//     someone asks "what happened?";
//   - the adapt timeline: TraceDump renders the control plane's one
//     decision log (decide, in adaptive.go), where the batch tuner,
//     rebalancer, overload shedder, locality manager and continuous
//     compiler record every decision, so a scenario's behavior is
//     replayable and explainable;
//   - sampling is deterministic — a submission counter, not a coin
//     flip — so a replayed scenario traces the same flows.
//
// The whole layer is gated on Config.Observe: with the zero value the
// server carries a nil *observer and every hot-path touch point is one
// nil check, adding no allocations per request.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// ObserveConfig switches on the serve layer's observability: sampled
// per-flow tracing and the flight recorder (Snapshot, which needs no
// switch, reports their accounting). The zero value disables both — the
// hot path then pays one nil check and allocates nothing extra per
// request.
type ObserveConfig struct {
	// SampleRate is the fraction of submissions (single requests and
	// flows alike) that carry a trace context: 1 traces everything,
	// 0.01 roughly every hundredth, 0 none. Sampling is deterministic —
	// every round(1/SampleRate)-th submission is traced — so a replayed
	// scenario traces the same flows.
	SampleRate float64
	// RingSize bounds the flight recorder: how many finished flow
	// traces are retained (default 256 when the layer is enabled).
	// Flows ending in shed, failure, or rejection are retained in
	// preference to completed ones; the ring never exceeds this bound.
	RingSize int
}

// enabled reports whether any part of the layer is on.
func (o ObserveConfig) enabled() bool {
	return o.SampleRate > 0 || o.RingSize > 0
}

// observer is the per-server observability state. A nil *observer is
// valid and inert: every method nil-checks, which is the entire cost
// of the disabled path.
type observer struct {
	cfg      ObserveConfig
	every    uint64 // trace every Nth submission; 0 = no flow tracing
	nextID   atomic.Uint64
	recorder *FlightRecorder

	traced *monitor.Counter // serve.observe.traced_flows
}

func newObserver(cfg ObserveConfig, mon *monitor.Monitor) *observer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	var every uint64
	if cfg.SampleRate > 0 {
		every = uint64(1 / cfg.SampleRate)
		if every < 1 {
			every = 1
		}
	}
	return &observer{
		cfg:      cfg,
		every:    every,
		recorder: &FlightRecorder{cap: cfg.RingSize},
		traced:   mon.Counter("serve.observe.traced_flows"),
	}
}

// sample decides whether this submission is traced, returning its
// trace context or nil. p supplies the stage names the span tree
// renders with (the tenant's solo pipeline for plain submits).
func (o *observer) sample(t *Tenant, p *Pipeline, key uint64) *FlowTrace {
	if o == nil || o.every == 0 {
		return nil
	}
	n := o.nextID.Add(1)
	if n%o.every != 0 {
		return nil
	}
	o.traced.Inc()
	names := make([]string, len(p.stages))
	for i, st := range p.stages {
		names[i] = st.name
	}
	return &FlowTrace{
		ID: n, Tenant: t.name, Pipeline: p.name, Key: key,
		Start: clock.Now().Unix(), stageNames: names,
	}
}

// finishFlow seals a flow's trace with its terminal status and offers
// it to the flight recorder.
func (o *observer) finishFlow(ft *FlowTrace, st Status) {
	if o == nil || ft == nil {
		return
	}
	ft.seal(st)
	o.recorder.offer(ft)
}

// maxFlowEvents bounds one flow's trace so a pathological flow (a huge
// fan-out, a retry storm) cannot grow its record without bound.
const maxFlowEvents = 4096

// FlowTrace is the trace context one sampled flow (or single request)
// carries through the serve path. Events append from whichever shard
// the flow is passing through; Events and SpanTree merge them into the
// deterministic total order of trace.Before.
type FlowTrace struct {
	ID       uint64
	Tenant   string
	Pipeline string
	Key      uint64
	Start    int64 // unix nanoseconds at sampling

	stageNames []string

	mu     sync.Mutex
	seq    uint64
	events []trace.Event
	final  Status
	sealed bool
	end    int64
}

// add appends one lifecycle event. shard is the producer the event is
// attributed to, locale the locale it happened at, arg the packed
// stage/element context (see spanArg).
func (f *FlowTrace) add(k trace.Kind, shard int, locale mem.Locale, arg int64, label string) {
	if f == nil {
		return
	}
	now := clock.Now().Unix()
	f.mu.Lock()
	if len(f.events) < maxFlowEvents {
		f.events = append(f.events, trace.Event{
			Time: now, Kind: k, Locale: int(locale),
			Producer: shard, Seq: f.seq, Arg: arg, Label: label,
		})
		f.seq++
	}
	f.mu.Unlock()
}

// seal marks the flow's terminal status. Late events (a fan-out
// element completing after a shed propagated) still append; the status
// is decided exactly once.
func (f *FlowTrace) seal(st Status) {
	f.mu.Lock()
	if !f.sealed {
		f.sealed = true
		f.final = st
		f.end = clock.Now().Unix()
	}
	f.mu.Unlock()
}

// Final returns the flow's terminal status (StatusOK before sealing).
func (f *FlowTrace) Final() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.final
}

// Events returns a copy of the flow's events in the deterministic
// total order of trace.Before.
func (f *FlowTrace) Events() []trace.Event {
	f.mu.Lock()
	evs := append([]trace.Event(nil), f.events...)
	f.mu.Unlock()
	return trace.Merge(evs)
}

// spanArg packs a job's stage index and fan-out element into an
// event's Arg: stage+1 in the high 32 bits (zero Arg means "no stage
// context": flow-level events), element index+1 in the low 32 (zero
// low half means a scalar stage execution).
func spanArg(stage int, elem int32) int64 {
	return int64(stage+1)<<32 | int64(uint32(elem))
}

// decodeSpanArg is spanArg's inverse; stage -1 means flow-level, elem
// -1 means scalar.
func decodeSpanArg(arg int64) (stage, elem int) {
	return int(arg>>32) - 1, int(int32(uint32(arg))) - 1
}

// SpanEvent is one rendered trace event, offset-stamped from the
// flow's start.
type SpanEvent struct {
	AtNS   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Shard  int    `json:"shard"`
	Locale int    `json:"locale"`
	Label  string `json:"label,omitempty"`
}

// StageSpan is one stage execution within a flow's span tree: a scalar
// stage run or a single fan-out element, attributed to the shard and
// locale it ultimately executed on.
type StageSpan struct {
	Stage  int         `json:"stage"`
	Elem   int         `json:"elem"` // fan-out element index; -1 for scalar
	Name   string      `json:"name"`
	Shard  int         `json:"shard"`
	Locale int         `json:"locale"`
	Events []SpanEvent `json:"events"`
}

// FlowSpan is the merged per-flow span tree: the flow's identity and
// terminal outcome at the root, one StageSpan per stage execution
// beneath it, plus any flow-level events (adaptivity decisions that
// ended it, admission refusals).
type FlowSpan struct {
	Flow     uint64      `json:"flow"`
	Tenant   string      `json:"tenant"`
	Pipeline string      `json:"pipeline"`
	Key      uint64      `json:"key"`
	Final    string      `json:"final"`
	StartNS  int64       `json:"start_unix_ns"`
	TotalNS  int64       `json:"total_ns"`
	Events   []SpanEvent `json:"events,omitempty"`
	Stages   []StageSpan `json:"stages"`
}

// SpanTree merges the flow's events into its span tree. Stage spans
// appear in order of first activity; each span's Shard/Locale is the
// attribution of its latest event, so a stolen job reports the shard
// that finally ran it.
func (f *FlowTrace) SpanTree() FlowSpan {
	f.mu.Lock()
	evs := append([]trace.Event(nil), f.events...)
	final, start, end := f.final, f.Start, f.end
	names := f.stageNames
	f.mu.Unlock()
	evs = trace.Merge(evs)
	span := FlowSpan{
		Flow: f.ID, Tenant: f.Tenant, Pipeline: f.Pipeline, Key: f.Key,
		Final: final.String(), StartNS: start,
	}
	if end > start {
		span.TotalNS = end - start
	}
	idx := make(map[[2]int]int) // (stage, elem) -> span.Stages index
	for _, e := range evs {
		se := SpanEvent{
			AtNS: e.Time - start, Kind: e.Kind.String(),
			Shard: e.Producer, Locale: e.Locale, Label: e.Label,
		}
		stage, elem := decodeSpanArg(e.Arg)
		if stage < 0 {
			span.Events = append(span.Events, se)
			continue
		}
		key := [2]int{stage, elem}
		i, ok := idx[key]
		if !ok {
			name := fmt.Sprintf("s%d", stage)
			if stage < len(names) {
				name = names[stage]
			}
			i = len(span.Stages)
			idx[key] = i
			span.Stages = append(span.Stages, StageSpan{
				Stage: stage, Elem: elem, Name: name,
			})
		}
		sp := &span.Stages[i]
		sp.Shard, sp.Locale = e.Producer, e.Locale
		sp.Events = append(sp.Events, se)
	}
	return span
}

// WriteText renders the span tree as an indented human-readable dump.
func (f *FlowTrace) WriteText(w io.Writer) {
	span := f.SpanTree()
	fmt.Fprintf(w, "flow %d tenant=%s pipeline=%s key=%d final=%s total=%v\n",
		span.Flow, span.Tenant, span.Pipeline, span.Key, span.Final,
		time.Duration(span.TotalNS))
	for _, sp := range span.Stages {
		elem := ""
		if sp.Elem >= 0 {
			elem = fmt.Sprintf("[%d]", sp.Elem)
		}
		fmt.Fprintf(w, "  stage %d %s%s shard=%d locale=%d\n",
			sp.Stage, sp.Name, elem, sp.Shard, sp.Locale)
		for _, e := range sp.Events {
			writeSpanEvent(w, "    ", e)
		}
	}
	for _, e := range span.Events {
		writeSpanEvent(w, "  ", e)
	}
}

func writeSpanEvent(w io.Writer, indent string, e SpanEvent) {
	fmt.Fprintf(w, "%s+%-12v %-10s shard=%d locale=%d", indent,
		time.Duration(e.AtNS), e.Kind, e.Shard, e.Locale)
	if e.Label != "" {
		fmt.Fprintf(w, "  %s", e.Label)
	}
	fmt.Fprintln(w)
}

// FlightRecorder is a bounded ring of recently finished flow traces.
// Flows ending in shed, failure, or rejection are force-retained:
// inserting into a full ring evicts the oldest completed-OK trace
// first, and a completed-OK newcomer is dropped rather than evict a
// retained failure. The ring never holds more than its bound.
type FlightRecorder struct {
	mu    sync.Mutex
	cap   int
	flows []*FlowTrace // insertion order, oldest first
}

// offer inserts one finished flow trace, applying the retention policy.
func (r *FlightRecorder) offer(f *FlowTrace) {
	bad := f.Final() != StatusOK
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.flows) < r.cap {
		r.flows = append(r.flows, f)
		return
	}
	if r.cap == 0 {
		return
	}
	// Full: evict the oldest OK trace. If every slot holds a failure,
	// only another failure may displace (the oldest) one.
	for i, g := range r.flows {
		if g.Final() == StatusOK {
			copy(r.flows[i:], r.flows[i+1:])
			r.flows[len(r.flows)-1] = f
			return
		}
	}
	if bad {
		copy(r.flows, r.flows[1:])
		r.flows[len(r.flows)-1] = f
	}
}

// Len reports how many traces are currently retained.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.flows)
}

// Flows returns the retained traces, oldest first (a copied slice).
func (r *FlightRecorder) Flows() []*FlowTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*FlowTrace(nil), r.flows...)
}

// Failures returns the retained traces that ended in shed, failure, or
// rejection, oldest first.
func (r *FlightRecorder) Failures() []*FlowTrace {
	var out []*FlowTrace
	for _, f := range r.Flows() {
		if f.Final() != StatusOK {
			out = append(out, f)
		}
	}
	return out
}

// WriteText dumps every retained trace as text, oldest first.
func (r *FlightRecorder) WriteText(w io.Writer) {
	flows := r.Flows()
	fmt.Fprintf(w, "flight recorder: %d traces retained\n", len(flows))
	for _, f := range flows {
		f.WriteText(w)
	}
}

// Recorder returns the server's flight recorder, or nil when
// Config.Observe is zero-valued.
func (s *Server) Recorder() *FlightRecorder {
	if s.obs == nil {
		return nil
	}
	return s.obs.recorder
}

// TraceDump is the full trace export: the controllers' decision log
// (see decide) plus the flight recorder's span trees. AtNS on adapt
// events is absolute unix nanoseconds (they are not scoped to one
// flow).
type TraceDump struct {
	Adapt []SpanEvent `json:"adapt"`
	Flows []FlowSpan  `json:"flows"`
}

// TraceDump snapshots the decision log and the flight recorder. Empty
// when Config.Observe is zero-valued.
func (s *Server) TraceDump() TraceDump {
	var d TraceDump
	if s.obs == nil {
		return d
	}
	for _, r := range s.decisions.records() {
		d.Adapt = append(d.Adapt, SpanEvent{
			AtNS: r.at.Unix(), Kind: trace.KindAdapt.String(),
			Shard: r.producer, Locale: int(r.locale), Label: r.label,
		})
	}
	for _, f := range s.obs.recorder.Flows() {
		d.Flows = append(d.Flows, f.SpanTree())
	}
	return d
}
