// Package serve is the job service layer over a litlx.System: the front
// door that turns the batch-oriented HTVM reproduction into a
// long-running multi-tenant server. It applies the paper's ideas to
// request serving:
//
//   - sharded admission — requests hash by (tenant, key) onto
//     independent bounded queues, so the admission hot path touches one
//     shard and nothing global; the submit is the spawn, as a parcel
//     starts a thread at its destination: the producer whose job no
//     batch SGT is on its way to drain starts one at the shard's locale
//     (up to InflightBatches), and no thread ever waits on an empty
//     queue;
//   - batching — a batch SGT drains up to Batch requests and runs them
//     in one activation, then retires, starting its successor if it
//     left work queued: one spawn per batch, amortizing spawn overhead
//     the way parcels amortize round trips; Tenant.SubmitMany extends
//     the same amortization up to admission, reserving each destination
//     shard's ring once per burst;
//   - allocation-free steady state — each shard's queue is a bounded
//     MPSC ring (producers admit with one tail CAS and one slot
//     publish, no lock), Job records and flow state recycle through
//     pools at completion, a Ticket is one allocation with its result
//     cell embedded, and each shard's batch SGTs reuse its batch records
//     and take one coarse timestamp per batch — so a steady-state Submit
//     allocates nothing (BENCH_serve.json pins the trajectory;
//     scripts/bench_serve.sh -check gates it in CI);
//   - backpressure and load shedding — full queues reject at admission
//     and batch SGTs shed requests whose deadline has already passed,
//     so overload degrades by dropping rather than by collapsing;
//   - residency (percolation of code and data) — tenant registration
//     can percolate the tenant's handler code image ahead of traffic
//     and register data objects in the shared mem.Space, requests
//     declare working sets over those objects, and each batch SGT
//     stages its batch's working set into its locale before execution
//     (the Section 3.2 percolation idea for both program instruction
//     and data blocks, each transfer priced by one closed-form cost), so
//     requests run warm and local;
//   - locale-aware routing (Config.Data) — every admission shard is
//     pinned to one locale of the multi-locale litlx.System, and a
//     request declaring a working set routes to a shard at the set's
//     majority home locale instead of the plain (tenant, key) hash,
//     turning would-be remote accesses into local ones;
//   - closed adaptivity loop (Config.Adapt) — the paper's Section 2
//     monitoring-feeds-controllers design applied to serving: per-shard
//     batch controllers retune drain bounds from queue-depth EWMAs and
//     batch-latency histograms, a periodic rebalancer steals queued
//     jobs from hot shards via adapt.LoadController (preserving
//     same-key admission order and tenant code residency), and an
//     overload controller sheds low-Request.Priority work when the
//     wait EWMA crosses the latency budget. See AdaptConfig, and the
//     control-plane map below.
//   - dataflow pipelines (Tenant.NewPipeline / SubmitFlow) — multi-stage
//     flows compiled once from Stage declarations (handler + routing
//     derivation) whose intermediate values are chained shard-to-shard:
//     each stage's result resolves at the producing shard, which admits
//     the next stage at its routed shard (the hop is the admission; a
//     hop back to the producing shard joins its running batch), Map
//     stages fan out over []any and join when their element count
//     reaches zero, and the flow's deadline and priority propagate to
//     every stage. A flow is one pooled record. Plain Submit is the
//     degenerate one-stage pipeline (Tenant.Solo). See pipeline.go.
//   - continuous compilation (Config.Compile) — the paper's other loop,
//     one more entry of the same control plane: admission folds every
//     key into a per-tenant count-min/top-K sketch (wait-free, zero
//     allocations), and the controller re-optimizes running tenants
//     from that feedback — Map fan-outs are modeled as loopir nests, run through
//     internal/compiler, and scattered across shards by the winning
//     sched.Factory (re-planned when the observed element-cost regime
//     drifts); hot (tenant, key) pairs are promoted to compiled
//     fast-path slots consulted at dispatch (TenantConfig.Specialize)
//     and demoted when they cool. Every decision lands in a hints.DB as
//     facts and hints, so a server fed the persisted script
//     (htserved -hints-file) restarts with the learned policy installed
//     before any traffic. Mechanism in internal/serve/contc; wiring in
//     compile.go.
//
// The surface is handle-based: RegisterTenant returns a *Tenant whose
// Submit/SubmitFunc/SubmitMany/SubmitFlow methods carry the resolved
// identity, so the per-request hot path performs no map lookup and no
// string hashing. Handlers are error-aware — func(*Ctx, Request) (any,
// error) — and compose through Middleware chains (server-wide and
// per-tenant), resolved once at registration.
//
// Every request, whichever surface submitted it, lives one lifecycle,
// and each step is one function:
//
//	route      routeShard     (tenant, key) hash, or the working set's home locale
//	construct  construct      the only place a Job is built (deadline default, key
//	                          sketch, trace context, flow reference, shard.newJob)
//	admit      admit          one ring reservation per shard group; counts acceptance
//	refuse     refuse         full shard or closing server; counts rejection, seals
//	                          the trace, delivers StatusRejected or returns the error
//	ring       jobRing        bounded MPSC queue (ring.go)
//	spawn      shard.kick     the producer whose job no batch SGT is about to drain
//	                          starts one, up to InflightBatches per shard
//	drain      batchRun.run   the batch SGT takes a batch, starts a sibling if work is
//	                          left, and sheds what expired in the queue or ranks below
//	                          the overload level
//	batch SGT  runBatch       one detached SGT per batch; stages working sets, then
//	                          retires and starts its successor if the ring holds more
//	execute    execute        runs the stage's handler (handle: once, or once per
//	                          element for an inline fan), or sheds (shed) a job whose
//	                          deadline passed after draining
//	sink       finishJob      counts the stage outcome, hands the Result to Job.sink:
//	                          a *Ticket, a callback, a burst's indexed callback, a
//	                          fan-out element's join (joinSink), or the flow
//	                          (flowState.resolve)
//	release    shard.recycle  record zeroed and pooled before the sink runs; the
//	                          job's flow reference dropped after
//	hand-off   chain          the next scalar stage (and a scalar entry stage) goes
//	                          first to the flow's own RemoteRouter (forward), which
//	                          may ship the rest of the flow to another node and end
//	                          it later through a Flow handle; else the producing
//	                          shard admits it at its routed shard — or, when that is
//	                          its own shard, the ring holds no ready job and the
//	                          batch is below its limit, appends it to the running
//	                          batch (admitStage, batchRun.fits); an inline fan,
//	                          fan-out elements and the stage after a join likewise
//	terminal   Flow.Finish    the one place a flow ends, local or remote, exactly once
//	                          per record generation; the router, then the sink, hear it
//
// Every adaptive decision comes from one control plane (adaptive.go,
// compile.go). Four controllers are entries of one clocked loop — step
// runs each at its own period, nothing else knows them by name — and
// the batch tuner runs in each batch SGT. Each owns its instruments,
// reports through one emitter (decide, onto the adapt timeline), is
// read by AdaptStats, and reaches the hot path through one nil-checked
// read:
//
//	controller  input                      decision              counters (AdaptStats)        hot path reads
//	batch       serve.shardNN.depth,       drain bound x2 / /2   BatchGrows, BatchShrinks     sh.ctrl.batch() in run
//	            serve.shardNN.batch_us
//	overload    serve.wait_us              shed level +-1        ShedLevel, ShedLowPriority   s.overload.shedLevel() in run
//	rebalance   shard.pending()            steal plan            Steals, Rebalances,          (moves queued jobs between rings)
//	                                                             Imbalance
//	localize    mem.Space access stats     migrate / replicate   Migrations, Replications     space.ReadAccess in execute
//	compile     tenant key sketch,         promote / demote,     HotPromotions, HotDemotions, t.fast.lookup in execute,
//	            stage elem_us estimators   plan / replan         CompilePlans, CompileSwaps,  st.scatter.Load in fanOut
//	                                                             FastPathHits, ScatteredElems
//
// Accounting flows through the system's internal/monitor instance:
// servers and tenants publish counters under the "serve." prefix, and
// each control-plane and flow counter is published by exactly one field
// of Stats, FlowStats or AdaptStats (Stats.Steals, which mirrors
// AdaptStats.Steals, is the one exception).
//
// An open server with nothing in flight holds no thread, so waiting on
// the underlying system returns while it is open. Still close the server
// before closing the system: a later submit would spawn a batch SGT, and
// spawning after Shutdown panics.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/litlx"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/serve/contc"
	"repro/internal/trace"
)

// ErrOverload reports an admission rejected by backpressure.
var ErrOverload = errors.New("serve: shard queue full")

// ErrClosed reports a submission after Close.
var ErrClosed = errors.New("serve: server closed")

// Config sizes a server.
type Config struct {
	// Shards is the number of admission queues (default 8), each pinned
	// to one locale, where its batch SGTs run.
	Shards int
	// QueueDepth bounds each shard queue (default 1024).
	QueueDepth int
	// Batch is the maximum jobs one batch SGT drains and runs (default
	// 32).
	Batch int
	// InflightBatches bounds how many batch SGTs one shard may have
	// executing at once (default 2): a job published while every batch
	// SGT of its shard is already executing starts another, up to this
	// bound, and otherwise waits for one to retire. This is what makes
	// the shard queue a real bound: when execution falls behind, jobs
	// accumulate in the bounded queue and admission rejects, instead of
	// the backlog leaking into an unbounded SGT pile.
	InflightBatches int
	// DefaultDeadline is applied to jobs submitted without one; zero
	// means such jobs never expire.
	DefaultDeadline time.Duration
	// Middleware wraps every tenant's handler, outermost first. The
	// chain composes once at registration, never on the hot path.
	Middleware []Middleware
	// Adapt configures the closed adaptivity loop (adaptive batch
	// sizing, shard stealing, overload shedding, locality rebalancing).
	// Zero value: off.
	Adapt AdaptConfig
	// Data configures the locale-aware data plane (working-set routing
	// and batch staging). Zero value: requests route by the (tenant,
	// key) hash alone and nothing is staged — declared working sets are
	// still recorded and priced as accesses, they just run where the
	// hash lands them.
	Data DataConfig
	// Observe configures flow tracing, the flight recorder, and metrics
	// export (see ObserveConfig). Zero value: off — the hot path pays a
	// single nil check and no extra allocations.
	Observe ObserveConfig
	// Compile configures the continuous-compilation controller (one more
	// entry of the control plane, see CompileConfig): per-tenant key
	// sketching at admission, learned scatter plans for Map fan-outs,
	// hot-key fast paths at dispatch, decisions persisted as hints.
	// Zero value: off — each touch point is one nil check.
	Compile CompileConfig
}

// DataConfig switches on the serving path's locale-aware data plane.
// Both knobs act only on requests that declare a WorkingSet; requests
// without one always take the (tenant, key) hash route.
type DataConfig struct {
	// LocalityRoute admits a working-set request to a shard at the
	// set's majority home locale (mem.Space.MajorityHome) instead of
	// the plain hash, falling back to the hash when that locale has no
	// shards. Within the chosen locale the (tenant, key) hash still
	// picks the shard, so same-key stickiness holds per locale.
	LocalityRoute bool
	// Stage lets each batch SGT percolate its batch's working set into
	// its locale before execution: one replication per object per
	// batch, priced like any transfer (transferCycles), instead of a
	// remote access per job.
	Stage bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.InflightBatches <= 0 {
		c.InflightBatches = 2
	}
	c.Adapt = c.Adapt.withDefaults(c)
	c.Compile = c.Compile.withDefaults(c)
	return c
}

// Server accepts request streams from many concurrent clients and
// executes them on a shared litlx.System.
type Server struct {
	sys   *litlx.System
	cfg   Config
	space *mem.Space // the system's global space; data-plane directory
	obs   *observer  // nil unless Config.Observe is enabled

	shards   []*shard
	byLocale [][]*shard // shards grouped by pinned locale, for routing
	regMu    sync.Mutex // serializes RegisterTenant; reads stay lock-free
	tenants  sync.Map   // name -> *Tenant

	inflight sync.WaitGroup // batch SGTs spawned and not yet retired
	closed   atomic.Bool

	// Instruments are resolved once here so the hot path never touches
	// the monitor's name table.
	accepted, rejected, shedc, done, failed *monitor.Counter
	batches, codexfer                       *monitor.Counter
	datastage                               *monitor.Counter
	latencyUS, waitUS                       *monitor.EWMA

	// Dataflow-pipeline accounting (Tenant.SubmitFlow): flow terminal
	// outcomes, stage-job volume, fan-out width, and stage-job steals.
	flowSub, flowDone, flowShed, flowFail, flowRej *monitor.Counter
	flowStages, flowFan, flowSteals                *monitor.Counter

	// Control plane (adaptive.go, compile.go): each controller is nil
	// unless its config is on, and owns its own instruments and scratch.
	// controllers lists the installed ones with their periods, in the
	// order the loop steps them: overload, rebalance, localize, comp.
	overload    *overloadController
	rebalance   *rebalanceController
	localize    *localityController
	comp        *compileController
	controllers []controller
	quit        chan struct{}
	control     sync.WaitGroup
}

// Tenant is the handle for one registered traffic source: its resolved
// identity (name hash, composed handler chain, counters, code-residency
// state) is bound at registration, so submissions through the handle
// perform no map lookup and no string hashing.
type Tenant struct {
	srv      *Server
	name     string
	hash     uint64
	mw       []Middleware // per-tenant chain, kept for pipeline compilation
	solo     *Pipeline    // the degenerate one-stage pipeline Submit executes
	pipeMu   sync.Mutex   // guards pipes (NewPipeline registrations)
	pipes    []*Pipeline  // in registration order; the compile controller walks a snapshot
	codeSize int
	resident []atomic.Bool // per shard: image already percolated/fetched
	objects  []mem.ObjID   // data objects registered in the shared space

	acc, rej, shed, ok *monitor.Counter
	waitUS, latUS      *monitor.EWMA

	// Continuous-compilation state (all nil when Config.Compile is off):
	// the admission-path key sketch, the dispatch-side fast-path slots,
	// and the Specialize hook.
	sketch     *contc.KeySketch
	fast       *fastTable
	specialize func(key uint64) Handler
}

// pipelines snapshots the tenant's registered pipelines.
func (t *Tenant) pipelines() []*Pipeline {
	t.pipeMu.Lock()
	defer t.pipeMu.Unlock()
	return append([]*Pipeline(nil), t.pipes...)
}

// Name returns the tenant's registered name.
func (t *Tenant) Name() string { return t.name }

// Objects returns the tenant's registered data objects, in
// TenantConfig.Objects order. Requests reference these ids in their
// WorkingSet / WriteSet declarations. The slice is a copy.
func (t *Tenant) Objects() []mem.ObjID {
	return append([]mem.ObjID(nil), t.objects...)
}

// residentAt reports whether the tenant's code image is already
// resident at the given shard — the rebalancer's affinity gate: a
// stolen job must never pay a cold code transfer its home shard had
// already absorbed.
func (t *Tenant) residentAt(shard int) bool { return t.resident[shard].Load() }

// TransferCycles returns the modeled cost of one cold fetch of the
// tenant's code image, in simulator cycles (0 without an image): what a
// shard's first job pays unless the image was warmed.
func (t *Tenant) TransferCycles() int64 {
	if t.codeSize <= 0 {
		return 0
	}
	return transferCycles(t.codeSize)
}

// New starts a server over sys with Shards admission shards, each pinned
// to one locale of the system (round-robin, so every locale gets
// len(shards)/locales shards, the first shards%locales locales one
// extra). No thread starts until work arrives. The pinning is what makes
// the data plane possible: a shard's batches execute at a known locale,
// so routing by a working set's home and staging into "the shard's
// locale" are well-defined.
func New(sys *litlx.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		space:     sys.Space,
		accepted:  sys.Mon.Counter("serve.accepted"),
		rejected:  sys.Mon.Counter("serve.rejected"),
		shedc:     sys.Mon.Counter("serve.shed"),
		done:      sys.Mon.Counter("serve.done"),
		failed:    sys.Mon.Counter("serve.failed"),
		batches:   sys.Mon.Counter("serve.batches"),
		codexfer:  sys.Mon.Counter("serve.codexfer"),
		datastage: sys.Mon.Counter("serve.data.staged"),
		latencyUS: sys.Mon.EWMA("serve.latency_us", 0.05),
		waitUS:    sys.Mon.EWMA("serve.wait_us", 0.05),

		flowSub:    sys.Mon.Counter("serve.flow.submitted"),
		flowDone:   sys.Mon.Counter("serve.flow.completed"),
		flowShed:   sys.Mon.Counter("serve.flow.shed"),
		flowFail:   sys.Mon.Counter("serve.flow.failed"),
		flowRej:    sys.Mon.Counter("serve.flow.rejected"),
		flowStages: sys.Mon.Counter("serve.flow.stage_jobs"),
		flowFan:    sys.Mon.Counter("serve.flow.fanout"),
		flowSteals: sys.Mon.Counter("serve.flow.stage_steals"),
	}
	if cfg.Observe.enabled() {
		s.obs = newObserver(cfg.Observe, cfg.Shards, sys.Mon)
		if cfg.Observe.Export {
			s.publishExpvar()
		}
	}
	locales := sys.Locales()
	s.byLocale = make([][]*shard, locales)
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg.QueueDepth)
		sh.locale = mem.Locale(i % locales)
		sh.srv, sh.maxSGTs = s, int64(cfg.InflightBatches)
		sh.runs = make(chan *batchRun, cfg.InflightBatches)
		bufCap := cfg.Batch
		if cfg.Adapt.Enabled {
			bufCap = cfg.Adapt.BatchMax
		}
		for r := 0; r < cfg.InflightBatches; r++ {
			sh.runs <- &batchRun{sh: sh, jobs: make([]*Job, 0, bufCap), ctx: Ctx{shard: sh.id, locale: sh.locale}}
		}
		sh.qdepth = sys.Mon.Histogram(fmt.Sprintf("serve.shard%02d.queue_depth", i), queueDepthBounds)
		sh.bsize = sys.Mon.Histogram(fmt.Sprintf("serve.shard%02d.batch_size", i), batchSizeBounds)
		s.shards = append(s.shards, sh)
		s.byLocale[sh.locale] = append(s.byLocale[sh.locale], sh)
	}
	if a := cfg.Adapt; a.Enabled {
		grow, shrink := sys.Mon.Counter("serve.adapt.batch_grow"), sys.Mon.Counter("serve.adapt.batch_shrink")
		for _, sh := range s.shards {
			sh.ctrl = newBatchController(s, sh, grow, shrink)
		}
		s.overload = newOverloadController(s)
		s.install(a.RebalanceEvery, s.overload.once)
		s.rebalance = newRebalanceController(s)
		s.install(a.RebalanceEvery, s.rebalance.once)
		if a.Locality {
			s.localize = newLocalityController(s)
			s.install(a.LocalityEvery, s.localize.once)
		}
	}
	if cfg.Compile.Enabled {
		s.comp = newCompileController(s)
		s.install(cfg.Compile.Every, s.comp.once)
	}
	if len(s.controllers) > 0 {
		s.quit = make(chan struct{})
		s.control.Add(1)
		go s.controlLoop()
	}
	return s
}

// routeShard picks the admission shard for one request: a declared
// working set under locality routing prefers a shard at the set's
// majority home locale (the hash then picks among that locale's
// shards), anything else — no working set, routing off, or a locale
// with no shards — falls back to the server-wide (tenant, key) hash.
func (s *Server) routeShard(t *Tenant, req *Request) *shard {
	if s.cfg.Data.LocalityRoute && len(req.WorkingSet) > 0 {
		if loc, ok := s.space.MajorityHome(req.WorkingSet); ok {
			if group := s.byLocale[loc]; len(group) > 0 {
				return group[shardIndex(t.hash, req.Key, len(group))]
			}
		}
	}
	return s.shards[shardIndex(t.hash, req.Key, len(s.shards))]
}

// Tenant returns the handle for a registered tenant.
func (s *Server) Tenant(name string) (*Tenant, bool) {
	v, ok := s.tenants.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Tenant), true
}

// Submit admits one request and returns a ticket that resolves when it
// completes or is shed. A full shard returns ErrOverload immediately
// (backpressure) and a closed server ErrClosed; the request never
// queues in either case.
func (t *Tenant) Submit(req Request) (*Ticket, error) {
	tk := &Ticket{}
	if err := t.srv.submit(t, t.solo.stages[0], nil, req, time.Now(), nil, tk, 0, false); err != nil {
		return nil, err
	}
	return tk, nil
}

// SubmitFunc admits one request, invoking done exactly once — on the
// executing SGT for completed requests, and on the batch SGT that
// drained them for shed ones. Rejected requests return ErrOverload (full shard) or
// ErrClosed (server closed) and done is never invoked. The request
// executes as the tenant's degenerate one-stage pipeline (Tenant.Solo)
// — the same admission core flows run on.
func (t *Tenant) SubmitFunc(req Request, done func(Result)) error {
	return t.srv.submit(t, t.solo.stages[0], nil, req, time.Now(), nil, callbackSink(done), 0, false)
}

// construct is the one place a job record is built. Every surface —
// plain submits, bursts, a flow's stage 0, stage hops, fan-out elements
// — hands it the stage to run, that stage's request, and the sink. A
// plain submission (fl nil) gets the server's default deadline, feeds
// the tenant's key sketch (wait-free, zero allocations), and draws its
// own trace sample; a flow job inherits all three from its flow, takes
// its reference on it, and is counted as a stage job — refuse undoes
// both. The request is routed here unless the caller already holds its
// shard (a stage hop or fan-out element, routed by the pipeline).
func (s *Server) construct(t *Tenant, st *pipeStage, fl *flowState, req Request, now time.Time, sh *shard, sk sink, idx int32) (*shard, *Job) {
	var ft *FlowTrace
	if fl == nil {
		s.defaultDeadline(&req, now)
		if t.sketch != nil {
			t.sketch.Update(req.Key)
		}
		ft = s.obs.sample(t, t.solo, req.Key)
	} else {
		fl.ref()
		ft = fl.ft
		s.flowStages.Inc()
	}
	if sh == nil {
		sh = s.routeShard(t, &req)
	}
	j := sh.newJob()
	j.tenant, j.req, j.enqueued, j.stage, j.sink, j.idx, j.flow, j.ft = t, req, now, st, sk, idx, fl, ft
	return sh, j
}

// defaultDeadline applies Config.DefaultDeadline to a submission that
// carries no deadline of its own.
func (s *Server) defaultDeadline(req *Request, now time.Time) {
	if req.Deadline.IsZero() && s.cfg.DefaultDeadline != 0 {
		req.Deadline = now.Add(s.cfg.DefaultDeadline)
	}
}

// submit constructs one job and offers it to its shard; see construct
// and admit for the parameters.
func (s *Server) submit(t *Tenant, st *pipeStage, fl *flowState, req Request, now time.Time, sh *shard, sk sink, idx int32, deliver bool) error {
	sh, j := s.construct(t, st, fl, req, now, sh, sk, idx)
	_, err := s.admit(sh, []*Job{j}, deliver)
	return err
}

// admitMark is the trace context of one sampled job in an admit group.
type admitMark struct {
	pos int
	ft  *FlowTrace
	arg int64
}

// admit offers constructed jobs of one tenant, all routed to sh, to the
// shard's ring in one reservation — a burst pays each destination
// shard's tail CAS once — and returns how many the ring took. That is
// always a prefix, so the earlier requests of a burst win the slots; the
// rest go to refuse, and err says why (nil when everything fit). This is
// the one place acceptance through a ring is accounted, for every
// submission surface; batchRun.take accounts a continuation the same way.
func (s *Server) admit(sh *shard, g []*Job, deliver bool) (n int, err error) {
	t := g[0].tenant
	// Capture what the admit events need BEFORE enqueue: the moment a job
	// enters the ring it is drainable, and by the time enqueueMany returns
	// it may already have executed and been recycled.
	var buf [4]admitMark
	marks := buf[:0]
	if s.obs != nil {
		for i, j := range g {
			if j.ft != nil {
				marks = append(marks, admitMark{i, j.ft, j.spanArg()})
			}
		}
	}
	if !s.closed.Load() {
		// Count acceptance before the jobs become drainable — a batch SGT
		// may finish one before enqueueMany returns, and Stats relies on
		// accepted never trailing done + shed — and take refusals back.
		t.acc.Add(int64(len(g)))
		s.accepted.Add(int64(len(g)))
		n = sh.enqueueMany(g)
		if r := int64(n - len(g)); r != 0 {
			t.acc.Add(r)
			s.accepted.Add(r)
		}
	}
	if n > 0 {
		for _, m := range marks {
			if m.pos < n {
				m.ft.add(trace.KindAdmit, sh.id, sh.locale, m.arg, "")
			}
		}
	}
	if n == len(g) {
		return n, nil
	}
	// Shards only refuse when full or shut; Close sets s.closed before
	// shutting shards, so the flag distinguishes the two.
	err = ErrOverload
	if s.closed.Load() {
		err = ErrClosed
	}
	for _, j := range g[n:] {
		s.refuse(sh, j, err, deliver)
	}
	return n, err
}

// refuse is the one refusal path: a job its shard would not take is
// accounted, traced and recycled here, whichever surface built it. Only
// backpressure counts as a rejection — a closed server refuses with
// ErrClosed without inflating the rejected counters. deliver is what
// the surface promised its caller: a uniform Result (bursts, stage hops,
// fan-out elements: the sink hears StatusRejected) or an error return
// (single submits and a flow's scalar stage 0: the sink never fires).
func (s *Server) refuse(sh *shard, j *Job, err error, deliver bool) {
	if err == ErrOverload {
		j.tenant.rej.Inc()
		s.rejected.Inc()
	}
	if j.flow != nil {
		// Undo construct's stage-job accounting: this job never existed.
		s.flowStages.Add(-1)
	}
	if j.ft != nil {
		j.ft.add(trace.KindFail, sh.id, sh.locale, j.spanArg(), "admission refused: "+err.Error())
		if j.flow == nil || !deliver {
			// No flow terminal will hear of this refusal — a plain
			// submission, or a flow that never started — so the trace
			// ends here.
			s.obs.finishFlow(j.ft, StatusRejected)
		}
	}
	sk, idx, pri, fl := j.sink, j.idx, j.req.Priority, j.flow
	sh.recycle(j)
	if deliver {
		sk.resolve(idx, Result{Status: StatusRejected, Err: err, Priority: pri}, nil)
	}
	fl.unref()
}

// SubmitMany admits a burst of requests as a unit, grouping them by
// destination shard so each shard's ring is reserved at most once per
// call. Every request gets a ticket: refused ones (full shard or closed
// server) resolve immediately with StatusRejected and Err set to
// ErrOverload or ErrClosed, so a burst's outcomes are uniform Results
// rather than a special-cased error.
func (t *Tenant) SubmitMany(reqs []Request) []*Ticket {
	tickets := make([]*Ticket, len(reqs))
	for i := range tickets {
		tickets[i] = &Ticket{}
	}
	t.SubmitManyFunc(reqs, func(i int, r Result) { tickets[i].cell.Put(r) })
	return tickets
}

// manyScratch is SubmitManyFunc's reusable working memory: the
// constructed jobs, their destination shards, and the counting-sort
// scaffolding that groups a burst into per-shard contiguous runs. Pooled
// package-wide (submitters are arbitrary goroutines), so a steady stream
// of bursts allocates nothing once the pool is warm.
type manyScratch struct {
	jobs    []*Job
	home    []int32
	counts  []int32
	next    []int32
	grouped []*Job
}

var manyPool sync.Pool

// release clears the job pointers (so the pool never pins a recycled
// Job's next life) and returns the scratch.
func (m *manyScratch) release() {
	clear(m.jobs)
	clear(m.grouped)
	manyPool.Put(m)
}

func getManyScratch(nreqs, nshards int) *manyScratch {
	m, _ := manyPool.Get().(*manyScratch)
	if m == nil {
		m = &manyScratch{}
	}
	if cap(m.jobs) < nreqs {
		m.jobs = make([]*Job, nreqs)
		m.home = make([]int32, nreqs)
		m.grouped = make([]*Job, nreqs)
	}
	m.jobs = m.jobs[:nreqs]
	m.home = m.home[:nreqs]
	m.grouped = m.grouped[:nreqs]
	if cap(m.counts) < nshards {
		m.counts = make([]int32, nshards)
		m.next = make([]int32, nshards)
	}
	m.counts = m.counts[:nshards]
	m.next = m.next[:nshards]
	clear(m.counts)
	return m
}

// SubmitManyFunc is SubmitMany without the ticket allocations: done is
// invoked exactly once per request with its index — immediately (with
// StatusRejected) for refused requests, at resolution for admitted
// ones. It returns the number admitted. When a shard has room for only
// part of its group, the earlier-indexed requests win, preserving
// admission order within the burst.
func (t *Tenant) SubmitManyFunc(reqs []Request, done func(i int, r Result)) int {
	s := t.srv
	if len(reqs) == 0 {
		return 0
	}
	now := time.Now()
	m := getManyScratch(len(reqs), len(s.shards))
	defer m.release()
	for i, r := range reqs {
		sh, j := s.construct(t, t.solo.stages[0], nil, r, now, nil, indexedSink(done), int32(i))
		m.jobs[i] = j
		m.home[i] = int32(sh.id)
		m.counts[sh.id]++
	}
	// Scatter jobs into per-shard contiguous groups of one backing array.
	sum := int32(0)
	for si, c := range m.counts {
		m.next[si] = sum
		sum += c
	}
	for i, j := range m.jobs {
		m.grouped[m.next[m.home[i]]] = j
		m.next[m.home[i]]++
	}
	accepted := 0
	for si, c := range m.counts {
		if c == 0 {
			continue
		}
		// After the scatter pass next[si] is one past the group's end.
		n, _ := s.admit(s.shards[si], m.grouped[m.next[si]-c:m.next[si]], true)
		accepted += n
	}
	return accepted
}

// execute runs one admitted request on the batch SGT, paying the
// modeled code-transfer cost if the tenant's image is not yet resident
// at this shard (percolated tenants pre-marked it everywhere), then the
// modeled access cost of its declared working set: reads served by a
// local copy are cheap, reads with no valid copy at this locale pay the
// modeled demand-fetch transfer on the critical path — exactly what
// routing and staging exist to avoid. Writes are recorded after the
// handler, serviced at each object's home. Requests whose deadline
// expired after draining — waiting for a batch slot, or behind a slow
// sibling in the same batch — are shed here rather than run uselessly
// late. An inline fan's job runs its handler once per element (handle)
// where any other job calls it once.
// The job starts at br.now: the batch's coarse timestamp for its first
// job, the end of the previous job for the rest. The deadline recheck
// and the wait measurement share it, and execute advances br.now to the
// clock read it takes after the handler, so a batch pays one clock read
// up front plus one per job, instead of three per job. A continuation
// the job's flow appends is stamped with that same read.
// br.ctx is the batch's reused execution context (per-job fields are
// overwritten each call; handlers must not retain it past their return,
// which was always the contract).
func (s *Server) execute(br *batchRun, j *Job) {
	sh, now := br.sh, br.now
	if !j.req.Deadline.IsZero() && now.After(j.req.Deadline) {
		s.shed(br, j, "deadline expired before execution")
		return
	}
	t := j.tenant
	if !t.resident[sh.id].Load() {
		spinWork(transferUnits(t.codeSize))
		t.resident[sh.id].Store(true)
		s.codexfer.Inc()
		if j.ft != nil {
			j.ft.add(trace.KindPercolate, sh.id, sh.locale, j.spanArg(),
				fmt.Sprintf("cold code fetch: tenant %s (%d bytes)", t.name, t.codeSize))
		}
	}
	remote := false
	for _, id := range j.req.WorkingSet {
		if info := s.space.ReadAccess(sh.locale, id, 0); info.Remote {
			remote = true
			spinWork(transferUnits(info.Bytes))
			if j.ft != nil {
				j.ft.add(trace.KindPercolate, sh.id, sh.locale, j.spanArg(),
					fmt.Sprintf("demand fetch: obj %d (%d bytes)", id, info.Bytes))
			}
		}
	}
	// Per-stage locality accounting: whether this stage execution was
	// served entirely from local copies — the signal pipeline routing
	// declarations exist to maximize.
	if j.stage.localExec != nil {
		if remote {
			j.stage.remoteExec.Inc()
		} else {
			j.stage.localExec.Inc()
		}
	}
	handler := j.stage.handler
	if j.flow == nil && t.fast != nil {
		// Continuous compilation: a promoted (tenant, key) runs its
		// compiled fast-path handler — one slot load and a key compare
		// (see fastTable.lookup).
		if fh := t.fast.lookup(j.req.Key); fh != nil {
			handler = fh
			s.comp.fastHits.Inc()
		}
	}
	br.ctx.tenant = t
	br.ctx.deadline = j.req.Deadline
	res := br.handle(j, handler)
	res.Wait, res.Priority = now.Sub(j.enqueued), j.req.Priority
	waitUS := float64(res.Wait) / float64(time.Microsecond)
	s.waitUS.Observe(waitUS)
	t.waitUS.Observe(waitUS)
	if res.Status == StatusOK {
		// Writes commit only for handlers that completed: a failed or
		// panicked handler must not invalidate replicas it never wrote.
		for _, id := range j.req.WriteSet {
			if info := s.space.WriteAccess(sh.locale, id, 0); info.Remote {
				spinWork(transferUnits(info.Bytes))
			}
		}
	}
	end := time.Now()
	br.now = end
	res.Total = end.Sub(j.enqueued)
	if res.Status == StatusFailed {
		s.failed.Inc()
	} else {
		t.ok.Inc()
	}
	s.done.Inc()
	latUS := float64(res.Total) / float64(time.Microsecond)
	s.latencyUS.Observe(latUS)
	t.latUS.Observe(latUS)
	s.finishJob(br, j, res)
}

// call runs handler h once for req on br's batch SGT, traced under arg
// as a dispatch event and a complete (or fail) event. It is the one
// handler call and the one recover: an error return or a panic fails
// this call only.
func (br *batchRun) call(j *Job, h Handler, req Request, arg int64) (res Result) {
	sh := br.sh
	if j.ft != nil {
		j.ft.add(trace.KindDispatch, sh.id, sh.locale, arg, "")
	}
	defer func() {
		if r := recover(); r != nil {
			res = Result{Status: StatusFailed, Err: fmt.Errorf("serve: handler panic: %v", r)}
		}
		if j.ft == nil {
			return
		}
		if res.Status == StatusFailed {
			j.ft.add(trace.KindFail, sh.id, sh.locale, arg, res.Err.Error())
		} else {
			j.ft.add(trace.KindComplete, sh.id, sh.locale, arg, "")
		}
	}()
	v, err := h(&br.ctx, req)
	if err != nil {
		return Result{Status: StatusFailed, Err: err}
	}
	return Result{Status: StatusOK, Value: v}
}

// handle runs job j's handler h: one call, or for an inline fan's job
// (see Pipeline.fanOut) one call per element, each checked against the
// deadline at br.now first, its result stored in the flow's join buffer,
// and the stage's result joined once at the end. On a stage the compile
// controller instruments, a clock read after each element advances
// br.now and times the element (its Total) for the cost estimators
// (finishJob -> count -> observeElem); any other stage reads no clock
// per element.
func (br *batchRun) handle(j *Job, h Handler) Result {
	if j.idx != inlineFan {
		return br.call(j, h, j.req, j.spanArg())
	}
	fl, st, req := j.flow, j.stage, j.req
	for i, part := range j.req.Payload.([]any) {
		arg, r := spanArg(st.idx, int32(i)+1), &fl.elems[i]
		if !req.Deadline.IsZero() && br.now.After(req.Deadline) {
			*r = Result{Status: StatusShed}
			if j.ft != nil {
				j.ft.add(trace.KindShed, br.sh.id, br.sh.locale, arg, "deadline expired before execution")
			}
			continue
		}
		req.Payload = part
		*r = br.call(j, h, req, arg)
		if st.costN != nil {
			end := time.Now()
			r.Total, br.now = end.Sub(br.now), end
		}
	}
	return fl.joined()
}

// finishJob is the one completion path, run exactly once per admitted
// job, on the batch br executing it: the stage counts the outcome (each
// element's, for an inline fan's job), a plain submission's trace is
// sealed (flow jobs leave that to the flow terminal), and the Result
// goes to the job's sink with the batch, which the next stage may join
// as a continuation. The record is recycled BEFORE the sink runs, so a
// user callback that resubmits can reuse it immediately; the job's flow
// reference is dropped AFTER, so the flow state outlasts whatever the
// sink does with it (chain the next stage, resolve the join).
func (s *Server) finishJob(br *batchRun, j *Job, res Result) {
	if j.idx == inlineFan {
		for _, r := range j.flow.elems {
			j.stage.count(r)
		}
	} else {
		j.stage.count(res)
	}
	if j.flow == nil {
		s.obs.finishFlow(j.ft, res.Status)
	}
	sk, idx, fl := j.sink, j.idx, j.flow
	br.sh.recycle(j)
	sk.resolve(idx, res, br)
	fl.unref()
}

// shed completes an expired job of batch br, at br.now, without running
// its handler (an inline fan's job sheds every element with it). cause
// is the human-readable reason recorded on the job's flow trace (when it
// carries one) as the KindAdapt decision that ended it, followed by the
// KindShed outcome — the flight recorder's answer to "why did this flow
// die?".
func (s *Server) shed(br *batchRun, j *Job, cause string) {
	sh := br.sh
	j.tenant.shed.Inc()
	s.shedc.Inc()
	if j.ft != nil {
		j.ft.add(trace.KindAdapt, sh.id, sh.locale, j.spanArg(), cause)
		j.ft.add(trace.KindShed, sh.id, sh.locale, j.spanArg(), "")
	}
	age := br.now.Sub(j.enqueued)
	res := Result{Status: StatusShed, Wait: age, Total: age, Priority: j.req.Priority}
	if j.idx == inlineFan {
		for i := range j.flow.elems {
			j.flow.elems[i] = res
		}
	}
	s.finishJob(br, j, res)
}

// shedLow sheds a job the overload controller dropped for its priority:
// the same shed accounting, plus the dedicated low-priority counter so
// overload shedding is distinguishable from deadline shedding.
func (s *Server) shedLow(br *batchRun, j *Job, level int) {
	// The shed path must keep feeding the wait estimator: in a full-shed
	// regime execute() observes nothing, and a frozen above-budget EWMA
	// would latch the shed level at max forever. Shed jobs report their
	// queue age, so once the backlog clears the estimate falls and the
	// controller lets traffic back in.
	s.waitUS.Observe(float64(br.now.Sub(j.enqueued)) / float64(time.Microsecond))
	s.overload.shed.Inc()
	cause := ""
	if j.ft != nil {
		cause = fmt.Sprintf("overload: priority %d below shed level %d", j.req.Priority, level)
	}
	s.shed(br, j, cause)
}

// Close shuts the admission queues, waiting out producers already
// inside one, then waits for every batch SGT to retire. Jobs still
// queued at Close are executed (or shed if expired) by the batch SGTs,
// not dropped. Submissions after Close return ErrClosed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.quit != nil {
		// Stop the control plane before shutting shards so no steal races
		// the drain of the tails.
		close(s.quit)
		s.control.Wait()
	}
	for _, sh := range s.shards {
		sh.shutdown()
	}
	s.inflight.Wait()
	// Release the expvar claim only if this server holds it: a newer
	// server may have claimed the "serve" var since.
	expvarSrv.CompareAndSwap(s, nil)
}

// Stats is a point-in-time view of the server's monitor counters.
type Stats struct {
	Accepted, Rejected, Shed, Done, Failed int64
	Batches, CodeTransfers                 int64
	// DataStaged counts working-set objects the residency subsystem
	// replicated into a shard's locale ahead of a batch
	// (Config.Data.Stage).
	DataStaged int64
	// Steals mirrors AdaptStats.Steals, the rebalancer's count of jobs
	// moved between shards — the one counter published on two structs,
	// kept because the benchmark harness reads it here. Every other
	// control-plane counter is on AdaptStats only.
	Steals int64
	// Flow aggregates the dataflow-pipeline path (Tenant.SubmitFlow).
	// Stage jobs also count in the per-job fields above (Accepted, Done,
	// Shed, ...): a flow is bookkept as one flow plus its stage jobs.
	Flow          FlowStats
	LatencyEWMAus float64
	// WaitEWMAus is the smoothed admission-to-execution wait — the
	// signal the overload controller steers by (AdaptStats.ShedLevel).
	WaitEWMAus float64
}

// FlowStats is a point-in-time view of the dataflow-pipeline path.
type FlowStats struct {
	// Submitted counts flows admitted at stage 0; Completed, Shed,
	// Failed, and Rejected are the terminal outcomes. Rejected means a
	// refusal past stage 0 or within a stage-0 fan-out (a partially
	// admitted fan-out cannot be unwound); a refused scalar stage 0
	// surfaces as a submission error and is not counted as a flow.
	Submitted, Completed, Shed, Failed, Rejected int64
	// StageJobs counts stage executions admitted on behalf of flows;
	// FanOut counts the elements Map stages issued, refused ones
	// included: one per element job, all of an inline fan's in its one
	// job.
	StageJobs, FanOut int64
	// StageSteals counts flow stage jobs the rebalancer moved between
	// shards (also counted in AdaptStats.Steals).
	StageSteals int64
}

// InFlight derives the flows admitted but not yet resolved.
func (f FlowStats) InFlight() int64 {
	return f.Submitted - f.Completed - f.Shed - f.Failed - f.Rejected
}

// InFlight derives the jobs admitted but not yet resolved. Because
// Stats reads the completion counters before the admission counter, the
// derivation is never negative, even mid-flight.
func (st Stats) InFlight() int64 { return st.Accepted - st.Done - st.Shed }

// Stats snapshots the server-level accounting.
func (s *Server) Stats() Stats {
	st := Stats{
		Rejected:      s.rejected.Value(),
		Shed:          s.shedc.Value(),
		Done:          s.done.Value(),
		Failed:        s.failed.Value(),
		Batches:       s.batches.Value(),
		CodeTransfers: s.codexfer.Value(),
		DataStaged:    s.datastage.Value(),
		LatencyEWMAus: s.latencyUS.Value(),
		WaitEWMAus:    s.waitUS.Value(),
		Flow: FlowStats{
			Completed:   s.flowDone.Value(),
			Shed:        s.flowShed.Value(),
			Failed:      s.flowFail.Value(),
			Rejected:    s.flowRej.Value(),
			StageJobs:   s.flowStages.Value(),
			FanOut:      s.flowFan.Value(),
			StageSteals: s.flowSteals.Value(),
		},
	}
	if s.rebalance != nil {
		st.Steals = s.rebalance.steals.Value()
	}
	// Accepted (and Flow.Submitted) is read last: a job increments
	// accepted before it can ever count as done or shed, so reading
	// completions first keeps the InFlight derivations consistent
	// (>= 0) in a moving system.
	st.Flow.Submitted = s.flowSub.Value()
	st.Accepted = s.accepted.Value()
	return st
}

// shardIndex mixes the tenant hash with the key so one hot tenant still
// spreads across shards by key, while (tenant, key) stays sticky.
func shardIndex(tenantHash, key uint64, shards int) int {
	h := tenantHash ^ (key * 0x9E3779B97F4A7C15)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(shards))
}

// fnv64a hashes a tenant name once at registration.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
