package serve

import (
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/syncx"
)

// Request describes one unit of work submitted to a tenant. Key routes
// the request (requests with the same key for the same tenant land on
// the same shard, in admission order); Payload is handed to the handler
// untouched; a request with a zero Deadline never expires.
type Request struct {
	Key      uint64
	Payload  any
	Deadline time.Time
	// Priority orders overload shedding: when the adaptivity loop's
	// overload controller raises its shed level, jobs with Priority
	// below the level are dropped at drain time, lowest first. Zero is
	// the default (most sheddable) class; mark latency-critical work
	// with a higher value. Ignored when Config.Adapt is off.
	Priority int
	// WorkingSet declares the global-space objects the handler reads —
	// ids from the tenant's registered objects (TenantConfig.Objects /
	// Tenant.Objects). The server records each as a mem.Space read at
	// the executing shard's locale, charging the modeled access cost
	// (remote when no valid copy is local); with Config.Data the
	// declaration also steers admission routing toward the set's
	// majority home locale and lets the batch SGT stage the set ahead
	// of execution. Same-(tenant,key) admission order is guaranteed only
	// among requests whose routing inputs match — under locality routing
	// that includes the working set's majority home.
	WorkingSet []mem.ObjID
	// WriteSet declares the objects the handler writes, recorded as
	// mem.Space writes after the handler runs (serviced at each object's
	// home, invalidating replicas). Writes feed the locality loop's
	// migrate-toward-the-writer decisions.
	WriteSet []mem.ObjID
}

// Handler executes one request for a tenant. It runs on an SGT of the
// shared litlx system, at the locale of the admitting shard. The
// returned value becomes Result.Value on success; a
// non-nil error marks the result StatusFailed and becomes Result.Err.
// A panic is recovered and reported the same way.
type Handler func(ctx *Ctx, req Request) (any, error)

// Middleware wraps a Handler with a cross-cutting concern — accounting,
// tracing, admission policy, result rewriting. A tenant's chain
// (TenantConfig.Middleware) composes at registration, never on the hot
// path: its first middleware runs outermost, the handler innermost.
type Middleware func(Handler) Handler

// Ctx is the per-request execution context handed to handlers and
// middleware. It is valid only for the duration of the handler call.
type Ctx struct {
	sgt      *core.SGT
	shard    int
	locale   mem.Locale
	tenant   *Tenant
	deadline time.Time
}

// SGT returns the small-grain thread the request is executing on.
func (c *Ctx) SGT() *core.SGT { return c.sgt }

// Shard returns the admission shard the request was queued on.
func (c *Ctx) Shard() int { return c.shard }

// Locale returns the locale the request is executing at — its shard's
// locale, where any declared working set was staged.
func (c *Ctx) Locale() mem.Locale { return c.locale }

// Tenant returns the name of the tenant the request belongs to.
func (c *Ctx) Tenant() string { return c.tenant.name }

// Deadline returns the request's effective deadline (after the server
// default was applied); zero means none.
func (c *Ctx) Deadline() time.Time { return c.deadline }

// Status classifies how a request left the server.
type Status uint8

const (
	// StatusOK: the handler ran and produced a value.
	StatusOK Status = iota
	// StatusRejected: the shard queue was full at admission, or the
	// server was closed (backpressure; the request never entered the
	// system). Surfaced through Result where the refused job is a stage
	// hop or fan-out element; a submission reports the same condition as
	// ErrOverload / ErrClosed.
	StatusRejected
	// StatusShed: the request was admitted but its deadline expired
	// before its batch SGT could start it (load shedding).
	StatusShed
	// StatusFailed: the handler returned an error or panicked.
	StatusFailed
)

// String names the status for reports.
func (st Status) String() string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusRejected:
		return "rejected"
	case StatusShed:
		return "shed"
	case StatusFailed:
		return "failed"
	}
	return "status?"
}

// Result is the outcome of one request.
type Result struct {
	Status   Status
	Value    any   // handler return value (StatusOK only)
	Err      error // StatusFailed: handler error or recovered panic; StatusRejected: ErrOverload or ErrClosed
	Priority int   // echoes Request.Priority
	// Wait is admission to execution start. A stage job its batch took
	// as a continuation (see batchRun.fits) is admitted at the end of the
	// job that produced it, in the same batch, so its Wait is about 0.
	Wait  time.Duration
	Total time.Duration // admission to completion, queue wait included
}

// sink is where a job's Result goes — the one completion form. finishJob
// (and refuse, for surfaces that promise a uniform Result instead of an
// error) calls resolve exactly once per job; idx is the job's Job.idx.
// br is the batch executing the job (nil for a refusal or a remote
// completion): a flow sink that chains may append the next stage's job
// to it (see batchRun.fits); every other sink ignores it.
// Every implementer is pointer-shaped, so storing one in a Job never
// allocates: *Ticket, callbackSink, joinSink, *flowState.
type sink interface {
	resolve(idx int32, r Result, br *batchRun)
}

// callbackSink is SubmitFunc's / SubmitFlowFunc's plain callback.
type callbackSink func(Result)

func (f callbackSink) resolve(_ int32, r Result, _ *batchRun) { f(r) }

// Job is one admitted unit of work, queued on a shard until a batch
// SGT drains it. Job records are pooled: Server.construct is the
// only place one is taken and filled, finishJob (or refuse) hands the
// Result to the sink and recycles the record zeroed, so the steady-state
// request path allocates no Job and leaks no field between generations.
type Job struct {
	tenant   *Tenant
	req      Request // Deadline already defaulted; zero means none
	enqueued clock.Nanos
	deadline clock.Nanos // req.Deadline on the clock; clock.Never for none
	// stage is the compiled pipeline stage this job executes — the
	// tenant's solo stage for plain submits, a Pipeline stage for flow
	// jobs. It carries the handler and the per-stage instruments; never
	// nil.
	stage *pipeStage
	// sink receives the Result; idx tells it which of its requests this
	// is: the stage index of a scalar flow job,
	// the element index of a fan-out job, inlineFan for the one job of
	// an inline fan (zero for plain submits).
	sink sink
	idx  int32
	// flow is the owning flow's state for pipeline jobs (nil for plain
	// submits). The job holds one reference on it from construct to the
	// end of finishJob / refuse.
	flow *flowState
	// ft is the sampled trace context the job's lifecycle events append
	// to; nil (the common case — unsampled, or observability off) makes
	// every emission point a single pointer check.
	ft *FlowTrace
}

// spanArg packs the job's stage/element context for its trace events.
// An inline fan's job (idx inlineFan) traces as its stage; its elements
// trace their handler calls under their own element context.
func (j *Job) spanArg() int64 {
	if j.stage.fanout {
		return spanArg(j.stage.idx, j.idx+1)
	}
	return spanArg(j.stage.idx, 0)
}

// routeHash identifies the job's (tenant, key) routing pair — the same
// mix shardIndex starts from. The rebalancer uses it to detect queued
// same-key siblings: only jobs whose pair is unique in their queue may
// be stolen, so same-key admission order is never reordered. (A hash
// collision between distinct keys only makes stealing conservative.)
func (j *Job) routeHash() uint64 {
	return j.tenant.hash ^ (j.req.Key * 0x9E3779B97F4A7C15)
}

// dataResidentAt reports whether every object in the job's declared
// working set has a valid copy (or its home) at the locale — the
// rebalancer's data-residency gate, the data analogue of the code gate
// in Tenant.residentAt: a steal must never trade queue wait for a
// string of remote accesses the home locale would have served locally.
// Jobs without a working set fit anywhere.
func (j *Job) dataResidentAt(loc mem.Locale) bool {
	if len(j.req.WorkingSet) == 0 {
		return true
	}
	// One lock acquisition for the whole set, no allocation — this sits
	// inside the rebalancer's per-candidate loop.
	return j.tenant.srv.space.AllValidAt(j.req.WorkingSet, loc)
}

// Ticket follows a submitted request — or a submitted flow — to
// completion.
type Ticket struct {
	// cell is embedded by value (a Cell's zero value is an empty cell):
	// a ticket is one allocation, not two.
	cell syncx.Cell[Result]
}

// resolve makes a ticket the sink of the request (or flow) it follows.
func (t *Ticket) resolve(_ int32, r Result, _ *batchRun) { t.Put(r) }

// Wait blocks until the request (for flows: the final stage) resolves
// and returns its result.
func (t *Ticket) Wait() Result { return t.cell.Get() }

// Put resolves the ticket with r, once: a ticket's Put is the done
// callback through which a callback-style surface hands out a ticket
// (cluster.Pipeline.Submit).
func (t *Ticket) Put(r Result) { t.cell.Put(r) }
