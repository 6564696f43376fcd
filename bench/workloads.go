package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/litlx"
	"repro/internal/serve"
	"repro/internal/spinwork"
)

// clients is the number of client goroutines every workload is driven
// by. The reference machine has two cores; more clients than cores
// would measure the Go scheduler's queue, not the stack's.
const clients = 2

type workloadKind int

const (
	kindSolo workloadKind = iota
	kindFlow
	kindCluster
)

// workloadSpec is one benchmark workload. Names are the contract with
// BENCHMARK.json; warmOps is the fixed operation count run before the
// first timed window (pools, code images and the cluster's single-flight
// fetches filled), which is also what setup_s times.
type workloadSpec struct {
	name    string
	kind    workloadKind
	open    bool   // open loop at openRate; otherwise closed loop, 2 clients
	transit string // span name of the transport leg (cluster workloads)
	warmOps int
	setup   func(seed uint64, tr *tracer) (instance, error)
}

var workloads = []workloadSpec{
	{name: "solo-small", kind: kindSolo, warmOps: 100_000,
		setup: func(seed uint64, tr *tracer) (instance, error) { return setupSolo(seed, tr, 0, serve.ObserveConfig{}) }},
	{name: "solo-work", kind: kindSolo, open: true, warmOps: 4_000,
		setup: func(seed uint64, tr *tracer) (instance, error) {
			return setupSolo(seed, tr, soloWorkUnits, serve.ObserveConfig{})
		}},
	{name: "flow-fan", kind: kindFlow, warmOps: 20_000, setup: setupFlow},
	{name: "cluster-fabric", kind: kindCluster, transit: "parcel.transit", warmOps: clusterWarmOps,
		setup: func(seed uint64, tr *tracer) (instance, error) { return setupCluster(seed, tr, false, false) }},
	{name: "cluster-tcp", kind: kindCluster, transit: "netparcel.transit", warmOps: clusterWarmOps,
		setup: func(seed uint64, tr *tracer) (instance, error) { return setupCluster(seed, tr, true, false) }},
	{name: "cluster-tcp-16k", kind: kindCluster, transit: "netparcel.transit", warmOps: clusterWarmOps / 2,
		setup: func(seed uint64, tr *tracer) (instance, error) { return setupCluster(seed, tr, true, true) }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// instance is one booted stack under test.
type instance interface {
	// op runs one request to completion on client c and reports whether
	// it finished OK with the right value. rec, when non-nil, receives
	// the request's timestamps.
	op(c int, seq uint64, rec *reqRec) bool
	counters() layerCounters
	// conserve checks the stack's own accounting from outside once
	// traffic has stopped.
	conserve() error
	close()
}

// layerCounters is a snapshot of the counters the layers export; the
// per-layer metrics are differences of two snapshots.
type layerCounters struct {
	accepted, done, shed, rejected, failed int64
	batches, steals                        int64
	flowInFlight                           int64

	flowsOriginated, flowsCompleted  int64
	remoteStages, localStages        int64
	wireBytes, wireParcels           int64
	recoveredFlows, staleCompletions int64
}

func (c *layerCounters) addServe(st serve.Stats) {
	c.accepted += st.Accepted
	c.done += st.Done
	c.shed += st.Shed
	c.rejected += st.Rejected
	c.failed += st.Failed
	c.batches += st.Batches
	c.steals += st.Steals
	c.flowInFlight += st.Flow.InFlight()
}

// conserveServe asserts admitted = done + shed (failed jobs count as
// done) and that no flow is left in flight. Counters settle a moment
// after the last completion callback, so it polls briefly.
func conserveServe(read func() layerCounters) error {
	var c layerCounters
	for deadline := time.Now().Add(2 * time.Second); ; {
		c = read()
		if c.accepted == c.done+c.shed && c.flowInFlight == 0 && c.flowsOriginated == c.flowsCompleted {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("conservation violated: accepted=%d done=%d shed=%d (failed=%d) flows in flight=%d, cluster flows originated=%d completed=%d",
		c.accepted, c.done, c.shed, c.failed, c.flowInFlight, c.flowsOriginated, c.flowsCompleted)
}

// ---- solo-small / solo-work ----

const (
	// soloWorkUnits is solo-work's handler cost in spinwork units
	// (about 45µs on the reference machine).
	soloWorkUnits = 100
	// openRate is solo-work's offered rate: about a fifth of one core.
	openRate = 4000.0
)

type soloInst struct {
	sys  *litlx.System
	srv  *serve.Server
	tn   *serve.Tenant
	seed uint64
}

func setupSolo(seed uint64, tr *tracer, work int64, obs serve.ObserveConfig) (*soloInst, error) {
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	srv := serve.New(sys, serve.Config{Shards: 4, Batch: 32, Observe: obs})
	cfg := serve.TenantConfig{
		Name: "solo",
		// The handler returns nil: boxing a value into Result.Value would
		// charge an allocation to the serving path.
		Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) {
			if work > 0 {
				spinwork.Work(work)
			}
			return nil, nil
		},
	}
	if tr != nil {
		cfg.Middleware = []serve.Middleware{stampSolo}
	}
	tn, err := srv.RegisterTenant(cfg)
	if err != nil {
		srv.Close()
		sys.Close()
		return nil, err
	}
	return &soloInst{sys: sys, srv: srv, tn: tn, seed: seed}, nil
}

// stampSolo is the bench-owned middleware of the traced run: handler
// start and end, and where the server ran it.
func stampSolo(next serve.Handler) serve.Handler {
	return func(ctx *serve.Ctx, req serve.Request) (any, error) {
		rec, _ := req.Payload.(*reqRec)
		if rec == nil {
			return next(ctx, req)
		}
		rec.stages = 1
		rec.shard[0], rec.locale[0] = int16(ctx.Shard()), int16(ctx.Locale())
		rec.hStart[0] = nowNS()
		v, err := next(ctx, req)
		rec.hEnd[0] = nowNS()
		return v, err
	}
}

func (s *soloInst) request(seq uint64, rec *reqRec) serve.Request {
	return serve.Request{Key: mix(s.seed ^ seq), Payload: rec}
}

func (s *soloInst) op(_ int, seq uint64, rec *reqRec) bool {
	if rec != nil {
		rec.t0 = nowNS()
	}
	tk, err := s.tn.Submit(s.request(seq, rec))
	if rec != nil {
		rec.t1 = nowNS()
	}
	if err != nil {
		return false
	}
	r := tk.Wait()
	ok := r.Status == serve.StatusOK && r.Value == nil
	if rec != nil {
		rec.t2 = nowNS()
		rec.wait, rec.total, rec.ok = int64(r.Wait), int64(r.Total), ok
	}
	return ok
}

func (s *soloInst) counters() layerCounters {
	var c layerCounters
	c.addServe(s.srv.Stats())
	return c
}

func (s *soloInst) conserve() error { return conserveServe(s.counters) }

func (s *soloInst) close() {
	s.srv.Close()
	s.sys.Close()
}

// ---- flow-fan ----

// flowReq is one flow's payload; each client reuses its own. The
// aggregate stage writes seen, the client checks it. Padded to a cache
// line so the two clients' records do not share one.
type flowReq struct {
	seq  uint64
	rec  *reqRec
	seen int
	_    [40]byte
}

type fanElem struct {
	fr  *flowReq
	idx int
}

type flowInst struct {
	soloInst
	pipe *serve.Pipeline
	reqs [clients]flowReq
}

func setupFlow(seed uint64, _ *tracer) (instance, error) {
	s, err := setupSolo(seed, nil, 0, serve.ObserveConfig{})
	if err != nil {
		return nil, err
	}
	pipe, err := s.tn.NewPipeline("fan",
		serve.Stage{Name: "parse", Handler: flowParse},
		serve.Stage{Name: "enrich", Handler: flowEnrich, Map: true},
		serve.Stage{Name: "aggregate", Handler: flowAggregate},
	)
	if err != nil {
		s.close()
		return nil, err
	}
	return &flowInst{soloInst: *s, pipe: pipe}, nil
}

// The three stage bodies do no work of their own; each stamps its start
// and end when its flow is traced (rec non-nil), and that is the whole
// of the bench-owned per-stage wrapper.

func flowParse(ctx *serve.Ctx, req serve.Request) (any, error) {
	fr := req.Payload.(*flowReq)
	rec := fr.rec
	if rec != nil {
		rec.stages = maxStages
		rec.shard[0], rec.locale[0] = int16(ctx.Shard()), int16(ctx.Locale())
		rec.hStart[0] = nowNS()
	}
	elems := make([]fanElem, fanWidth)
	parts := make([]any, fanWidth)
	for i := range elems {
		elems[i] = fanElem{fr: fr, idx: i}
		parts[i] = &elems[i]
	}
	if rec != nil {
		rec.hEnd[0] = nowNS()
	}
	return parts, nil
}

func flowEnrich(_ *serve.Ctx, req serve.Request) (any, error) {
	e := req.Payload.(*fanElem)
	if rec := e.fr.rec; rec != nil {
		rec.eStart[e.idx] = nowNS()
		rec.eEnd[e.idx] = nowNS()
	}
	return e, nil
}

func flowAggregate(ctx *serve.Ctx, req serve.Request) (any, error) {
	parts, ok := req.Payload.([]any)
	if !ok || len(parts) == 0 {
		return nil, fmt.Errorf("aggregate: input is %T, want []any", req.Payload)
	}
	fr := parts[0].(*fanElem).fr
	rec := fr.rec
	if rec != nil {
		rec.shard[2], rec.locale[2] = int16(ctx.Shard()), int16(ctx.Locale())
		rec.hStart[2] = nowNS()
	}
	var seen uint
	for _, p := range parts {
		e, ok := p.(*fanElem)
		if !ok || e.fr != fr || seen&(1<<e.idx) != 0 {
			return nil, errors.New("aggregate: foreign or duplicate part")
		}
		seen |= 1 << e.idx
	}
	fr.seen = len(parts)
	if rec != nil {
		rec.hEnd[2] = nowNS()
	}
	return fr, nil
}

func (f *flowInst) op(c int, seq uint64, rec *reqRec) bool {
	fr := &f.reqs[c]
	*fr = flowReq{seq: seq, rec: rec}
	req := serve.Request{Key: mix(f.seed ^ seq), Payload: fr}
	if rec != nil {
		rec.t0 = nowNS()
	}
	tk, err := f.tn.SubmitFlow(f.pipe, req)
	if rec != nil {
		rec.t1 = nowNS()
	}
	if err != nil {
		return false
	}
	r := tk.Wait()
	ok := r.Status == serve.StatusOK && r.Value == any(fr) && fr.seen == fanWidth
	if rec != nil {
		rec.t2 = nowNS()
		rec.wait, rec.total, rec.ok = int64(r.Wait), int64(r.Total), ok
	}
	return ok
}
