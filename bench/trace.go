package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"repro/internal/parcel"
)

// Tracing here is the benchmark's own: every timestamp is taken in a
// bench/ file, around a call into a layer's public surface. Nothing
// inside the program is instrumented, so a later change to a layer
// cannot move, drop or redefine what is measured.
//
// The hot side only stamps: a request owns one preallocated reqRec that
// the client, the bench-owned handler wrappers and the completion path
// write disjoint fields of, and the transport decorator appends tevs to
// a preallocated log. Spans are materialised from those after the
// traced window ends.

const (
	maxStages = 3
	fanWidth  = 8
	// maxTraced bounds the traced window's requests (and so memory): the
	// window ends at its time limit or when the records run out.
	maxTraced = 1 << 16
	maxTevs   = 1 << 20
	// spanFileRequests bounds the requests whose spans are written to
	// the trace file; the layer metrics use every traced request.
	spanFileRequests = 2000
)

// reqRec holds one traced request's raw timestamps (ns since epoch).
type reqRec struct {
	seq uint64
	due int64 // open loop: intended send time; closed loop: 0
	t0  int64 // just before the Submit* call
	t1  int64 // Submit* returned
	t2  int64 // result observed (Wait returned / completion callback ran)

	wait, total int64 // Result.Wait / Result.Total as the server reports them
	ok          bool

	stages int // scalar stages stamped (1 for solo submits)
	hStart [maxStages]int64
	hEnd   [maxStages]int64
	node   [maxStages]int8
	shard  [maxStages]int16
	locale [maxStages]int16
	// Fan-out elements of flow-fan's middle stage.
	eStart [fanWidth]int64
	eEnd   [fanWidth]int64
}

// fanExtent returns when the first fan-out element started and the last
// one ended.
func (r *reqRec) fanExtent() (first, last int64) {
	first, last = r.eStart[0], r.eEnd[0]
	for i := 1; i < fanWidth; i++ {
		first, last = min(first, r.eStart[i]), max(last, r.eEnd[i])
	}
	return first, last
}

// Transport event kinds.
const (
	evSend = iota
	evCall
	evRecv
)

// tev is one transport-decorator event: a Send or Call leaving a node,
// or a handler entered on the receiving node. hash identifies the body
// so a send is matched to its receive without decoding it — the codec
// is the cluster package's business and may change.
type tev struct {
	kind       uint8
	node, peer int8
	method     uint8 // index into tracer.methods
	size       int
	reply      int
	hash       uint64
	start, end int64
}

type tracer struct {
	recs  []reqRec
	base  uint64 // seq of recs[0]; requests below it (warm-up) are untraced
	nodes []string

	tevs  []tev
	ntevs atomic.Int64
	armed atomic.Bool // transport events are logged only while armed

	mu      sync.Mutex
	methods atomic.Pointer[[]string] // interned method names, copy-on-write
}

// newTracer allocates the trace buffers outside the Go heap. On the
// heap their ~30 MB would be live data: the collector's trigger scales
// with the live heap, so the traced run would collect several times
// less often than the untraced runs it is meant to explain (on
// cluster-tcp-16k that alone more than halved the latency). Both record
// types are pointer-free, so the collector has no business in them.
func newTracer() (*tracer, error) {
	recs, err := offHeap[reqRec](maxTraced)
	if err != nil {
		return nil, err
	}
	tevs, err := offHeap[tev](maxTevs)
	if err != nil {
		return nil, err
	}
	t := &tracer{recs: recs, tevs: tevs, base: ^uint64(0) >> 1} // nothing is traced until arm
	t.methods.Store(&[]string{})
	return t, nil
}

// offHeap maps n zeroed values of a pointer-free type T. The mapping
// lives until the process exits.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("trace buffer: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

// methodID interns a transport method name.
func (t *tracer) methodID(name string) uint8 {
	for i, m := range *t.methods.Load() {
		if m == name {
			return uint8(i)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.methods.Load()
	for i, m := range old {
		if m == name {
			return uint8(i)
		}
	}
	next := append(append([]string(nil), old...), name)
	t.methods.Store(&next)
	return uint8(len(old))
}

func (t *tracer) methodName(id uint8) string { return (*t.methods.Load())[id] }

// arm starts tracing at request sequence number seq; disarm stops the
// transport log. Both are safe on a nil tracer, and are called only
// while no traffic is running.
func (t *tracer) arm(seq uint64) {
	if t != nil {
		t.base = seq
		t.armed.Store(true)
	}
}

func (t *tracer) disarm() {
	if t != nil {
		t.armed.Store(false)
	}
}

// rec returns the record of request seq, or nil when seq is outside the
// traced range. Safe on a nil tracer.
func (t *tracer) rec(seq uint64) *reqRec {
	if t == nil {
		return nil
	}
	i := seq - t.base
	if i >= uint64(len(t.recs)) {
		return nil
	}
	r := &t.recs[i]
	r.seq = seq
	return r
}

func (t *tracer) event(e tev) {
	i := t.ntevs.Add(1) - 1
	if i < int64(len(t.tevs)) {
		t.tevs[i] = e
	}
}

// bodyHash is FNV-1a over the body's head and tail plus its length:
// enough to tell parcels apart (flow id and stage sit in the head)
// without walking 16 KiB payloads.
func bodyHash(b []byte) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(b))
	add := func(p []byte) {
		for _, c := range p {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	if len(b) <= 320 {
		add(b)
	} else {
		add(b[:256])
		add(b[len(b)-64:])
	}
	return h
}

// tracedTransport decorates the parcel.Transport handed to
// cluster.Config.Transport: Send/Call entry and exit and every handler
// entry are logged with method and body length.
type tracedTransport struct {
	parcel.Transport
	tr   *tracer
	node int8
}

func (t *tracedTransport) peerIndex(id parcel.NodeID) int8 {
	for i, n := range t.tr.nodes {
		if n == string(id) {
			return int8(i)
		}
	}
	return -1
}

func (t *tracedTransport) Handle(method string, h parcel.TransportHandler) {
	id := t.tr.methodID(method)
	t.Transport.Handle(method, func(from parcel.NodeID, body []byte) ([]byte, error) {
		if !t.tr.armed.Load() {
			return h(from, body)
		}
		e := tev{kind: evRecv, node: t.node, peer: t.peerIndex(from), method: id,
			size: len(body), hash: bodyHash(body), start: nowNS()}
		reply, err := h(from, body)
		e.end, e.reply = nowNS(), len(reply)
		t.tr.event(e)
		return reply, err
	})
}

func (t *tracedTransport) Send(dest parcel.NodeID, method string, body []byte) error {
	if !t.tr.armed.Load() {
		return t.Transport.Send(dest, method, body)
	}
	e := tev{kind: evSend, node: t.node, peer: t.peerIndex(dest), method: t.tr.methodID(method),
		size: len(body), hash: bodyHash(body), start: nowNS()}
	err := t.Transport.Send(dest, method, body)
	e.end = nowNS()
	t.tr.event(e)
	return err
}

func (t *tracedTransport) Call(dest parcel.NodeID, method string, body []byte) ([]byte, error) {
	if !t.tr.armed.Load() {
		return t.Transport.Call(dest, method, body)
	}
	e := tev{kind: evCall, node: t.node, peer: t.peerIndex(dest), method: t.tr.methodID(method),
		size: len(body), hash: bodyHash(body), start: nowNS()}
	reply, err := t.Transport.Call(dest, method, body)
	e.end, e.reply = nowNS(), len(reply)
	t.tr.event(e)
	return reply, err
}

// span is one materialised interval. Spans of one request share Req;
// Parent is the ID of the span that caused this one (0 for a request's
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Detail string `json:"detail,omitempty"`
}

// parcelSpan is one matched send→receive pair of transport events.
type parcelSpan struct {
	send, recv tev
	claimed    bool
}

// matchParcels pairs each Send/Call with the handler entry that
// received the same body on the destination node (FIFO among equal
// bodies), sorted by send time.
func matchParcels(evs []tev) []*parcelSpan {
	type key struct {
		dest   int8
		method uint8
		hash   uint64
	}
	recvs := make(map[key][]tev)
	for _, e := range evs {
		if e.kind == evRecv {
			k := key{e.node, e.method, e.hash}
			recvs[k] = append(recvs[k], e)
		}
	}
	for _, q := range recvs {
		sort.Slice(q, func(i, j int) bool { return q[i].start < q[j].start })
	}
	var sends []tev
	for _, e := range evs {
		if e.kind != evRecv {
			sends = append(sends, e)
		}
	}
	sort.Slice(sends, func(i, j int) bool { return sends[i].start < sends[j].start })
	var out []*parcelSpan
	for _, s := range sends {
		k := key{s.peer, s.method, s.hash}
		q := recvs[k]
		if len(q) == 0 {
			continue
		}
		recvs[k] = q[1:]
		out = append(out, &parcelSpan{send: s, recv: q[0]})
	}
	return out
}

// spanBuilder turns records into spans.
type spanBuilder struct {
	spans   []span
	tr      *tracer // node and method names
	parcels []*parcelSpan
}

func (b *spanBuilder) add(parent int, req uint64, name string, node int8, start, end int64, detail string) int {
	s := span{ID: len(b.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end, Detail: detail}
	if node >= 0 && int(node) < len(b.tr.nodes) {
		s.Node = b.tr.nodes[node]
	}
	b.spans = append(b.spans, s)
	return s.ID
}

// attachParcel finds the unclaimed parcel from node a to node b sent
// inside [from, to] and records its transit and handling as children of
// parent. The choice is by time containment, so with two flows hopping
// the same way at once it can pick the other flow's parcel; only the
// trace file's parent links depend on it, no metric does.
func (b *spanBuilder) attachParcel(parent int, req uint64, a, c int8, from, to int64, transit string) {
	i := sort.Search(len(b.parcels), func(i int) bool { return b.parcels[i].send.start >= from })
	for ; i < len(b.parcels) && b.parcels[i].send.start <= to; i++ {
		p := b.parcels[i]
		if p.claimed || p.send.node != a || p.send.peer != c || p.recv.start > to {
			continue
		}
		p.claimed = true
		detail := fmt.Sprintf("%s %dB", b.tr.methodName(p.send.method), p.send.size)
		b.add(parent, req, transit, a, p.send.start, p.recv.start, detail)
		b.add(parent, req, "cluster.handle", c, p.recv.start, p.recv.end, detail)
		return
	}
}

// build materialises one request. transit names the transport layer
// ("parcel.transit" on the fabric, "netparcel.transit" over TCP).
func (b *spanBuilder) build(r *reqRec, kind workloadKind, transit string) {
	start := r.t0
	if r.due != 0 {
		start = r.due
	}
	root := b.add(0, r.seq, "request", -1, start, r.t2, "")
	if r.due != 0 {
		b.add(root, r.seq, "gen.late", -1, r.due, r.t0, "")
	}
	stageDetail := func(i int) string {
		return fmt.Sprintf("stage=%d shard=%d locale=%d", i, r.shard[i], r.locale[i])
	}
	last := r.stages - 1
	switch kind {
	case kindSolo, kindFlow:
		q := b.add(root, r.seq, "serve.queue_wait", -1, r.t0, r.hStart[0], "")
		b.add(q, r.seq, "serve.submit", -1, r.t0, r.t1, "")
		b.add(root, r.seq, "serve.exec", r.node[0], r.hStart[0], r.hEnd[0], stageDetail(0))
		if kind == kindSolo {
			break
		}
		first, lastEnd := r.fanExtent()
		b.add(root, r.seq, "serve.stage_hop", -1, r.hEnd[0], first, "")
		fan := b.add(root, r.seq, "serve.fan", -1, first, lastEnd, "")
		for i := 0; i < fanWidth; i++ {
			b.add(fan, r.seq, "serve.exec", -1, r.eStart[i], r.eEnd[i], fmt.Sprintf("stage=1 elem=%d", i))
		}
		b.add(root, r.seq, "serve.join", -1, lastEnd, r.hStart[last], "")
		b.add(root, r.seq, "serve.exec", r.node[last], r.hStart[last], r.hEnd[last], stageDetail(last))
	case kindCluster:
		in := b.add(root, r.seq, "cluster.ingress", -1, r.t0, r.hStart[0], "")
		b.add(in, r.seq, "serve.submit", -1, r.t0, r.t1, "")
		if r.node[0] != 0 {
			b.attachParcel(in, r.seq, 0, r.node[0], r.t0, r.hStart[0], transit)
		}
		for i := 0; i <= last; i++ {
			b.add(root, r.seq, "serve.exec", r.node[i], r.hStart[i], r.hEnd[i], stageDetail(i))
			if i == last {
				break
			}
			if r.node[i] == r.node[i+1] {
				b.add(root, r.seq, "serve.stage_hop", r.node[i], r.hEnd[i], r.hStart[i+1], "")
				continue
			}
			hop := b.add(root, r.seq, "cluster.hop", -1, r.hEnd[i], r.hStart[i+1],
				fmt.Sprintf("%s->%s", b.tr.nodes[r.node[i]], b.tr.nodes[r.node[i+1]]))
			b.attachParcel(hop, r.seq, r.node[i], r.node[i+1], r.hEnd[i], r.hStart[i+1], transit)
		}
	}
	name := "serve.resolve"
	if kind == kindCluster {
		name = "cluster.complete"
	}
	done := b.add(root, r.seq, name, -1, r.hEnd[last], r.t2, "")
	if kind == kindCluster && r.node[last] != 0 {
		b.attachParcel(done, r.seq, r.node[last], 0, r.hEnd[last], r.t2, transit)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		c := iv{max(s.Start, p.Start), min(s.End, p.End)}
		if c.e > c.s {
			kids[s.Parent] = append(kids[s.Parent], c)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].s < ks[j].s })
		var covered, upto int64
		upto = s.Start
		for _, k := range ks {
			if k.e <= upto {
				continue
			}
			covered += k.e - max(k.s, upto)
			upto = k.e
		}
		self[s.ID] = max(s.End-s.Start, 0) - covered
	}
	return self
}

// layerSelf answers "where did the median request's time go": it takes
// the requests in the middle tenth by latency and returns, per span
// name, their mean self time in microseconds, plus their mean latency.
// Within one request self times add up to its latency exactly, so the
// rows add up to the latency shown, and the "(unattributed)" row is the
// part of it no span covers. (Medians of each span over all requests
// would not add up: a request is slow when any one of its legs is.)
func layerSelf(spans []span) (byName map[string]float64, latency float64) {
	self := selfTimes(spans)
	type root struct {
		req uint64
		dur int64
	}
	var roots []root
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, root{s.Req, s.End - s.Start})
		}
	}
	if len(roots) == 0 {
		return nil, 0
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].dur < roots[j].dur })
	lo, hi := len(roots)*45/100, len(roots)*55/100+1
	mid := make(map[uint64]bool, hi-lo)
	for _, r := range roots[lo:min(hi, len(roots))] {
		mid[r.req] = true
		latency += float64(r.dur) / 1e3
	}
	byName = make(map[string]float64)
	for _, s := range spans {
		if !mid[s.Req] {
			continue
		}
		name := s.Name
		if s.Parent == 0 {
			name = "(unattributed)"
		}
		byName[name] += float64(self[s.ID]) / 1e3
	}
	for name := range byName {
		byName[name] /= float64(len(mid))
	}
	return byName, latency / float64(len(mid))
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload      string   `json:"workload"`
	Seed          uint64   `json:"seed"`
	Nodes         []string `json:"nodes,omitempty"`
	Requests      int      `json:"requests_traced"`
	RequestsInFil int      `json:"requests_in_file"`
	Clock         string   `json:"clock"`
	Spans         []span   `json:"spans"`
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
