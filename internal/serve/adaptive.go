package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/serve/contc"
)

// AdaptConfig switches on the serve layer's closed adaptivity loop —
// the paper's always-on-monitoring-feeds-controllers design (Section 2)
// applied to request serving. Four controllers run against the live
// monitor instruments (Config.Compile adds a fifth, see CompileConfig).
// The batch tuner runs in each batch SGT; the other three are entries
// of the server's control plane, one clocked loop that fires each
// controller at its own period:
//
//   - batch sizing: each shard's batch SGTs retune its drain bound from a
//     per-shard queue-depth EWMA, growing batches while the backlog
//     deepens (amortization) and shrinking them while the shard idles
//     or its batch-latency histogram breaches the budget;
//   - load rebalancing: a periodic controller feeds per-shard pending
//     counts through adapt.Imbalance and the system's load controller
//     (litlx.System.Load: its threshold and Plan) and steals queued
//     jobs from hot shards into idle ones, never moving a job whose
//     (tenant, key) has a queued sibling (co-queued same-key jobs keep
//     their queue order; see stealJobsInto) and never onto a shard
//     where the tenant's code image is not resident;
//   - overload control: when the admission-to-execution wait EWMA
//     crosses LatencyBudget, the shed level rises and batch SGTs drop
//     jobs with Request.Priority below it at drain time — lowest
//     priority first, before any deadline expires;
//   - locality rebalancing (Locality): a periodic loop feeds the shared
//     mem.Space access statistics — which the shards populate as they
//     execute declared working sets at their locales — through
//     adapt.LocalityManager, migrating write-heavy objects toward the
//     locale that touches them most and replicating read-mostly ones at
//     their readers, so the data plane keeps converging on local access
//     as traffic drifts.
//
// The zero value leaves all of it off: the server runs the fixed
// Batch/QueueDepth knobs exactly as before.
type AdaptConfig struct {
	// Enabled turns the adaptivity loop on.
	Enabled bool
	// BatchMax bounds the adaptive drain batch (default 4*Batch; the
	// floor is one job). Config.Batch is the starting point, clamped
	// into [1, BatchMax].
	BatchMax int
	// RebalanceEvery is the control-loop period for stealing and
	// overload decisions (default 1ms). The rebalancer steals once the
	// max/mean pending ratio crosses the system's load controller's
	// threshold (litlx.System.Load).
	RebalanceEvery time.Duration
	// LatencyBudget is the admission-to-execution wait the overload
	// controller defends (default 10ms). Jobs with Priority >=
	// maxShedLevel (4) are never shed by it.
	LatencyBudget time.Duration
	// Locality turns on the locality loop: every 8*RebalanceEvery the
	// server runs the system's adapt.LocalityManager over the shared
	// space, applying its migrate/replicate plan and decaying the
	// access counters.
	Locality bool
}

// maxShedLevel caps the overload shed level: jobs with Priority >=
// maxShedLevel are never shed by the overload controller.
const maxShedLevel = 4

func (a AdaptConfig) withDefaults(base Config) AdaptConfig {
	if !a.Enabled {
		return a
	}
	if a.BatchMax <= 0 {
		a.BatchMax = 4 * base.Batch
	}
	if a.RebalanceEvery <= 0 {
		a.RebalanceEvery = time.Millisecond
	}
	if a.LatencyBudget <= 0 {
		a.LatencyBudget = 10 * time.Millisecond
	}
	return a
}

// batchLatencyBounds bucket one batch's service time in microseconds.
var batchLatencyBounds = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// controller is one entry of the server's control plane: a decision
// pass the loop runs every period. Behind each once is a struct that
// owns its instruments and scratch, and whose counters AdaptStats reads
// — the loop knows none of them by name.
type controller struct {
	every time.Duration
	next  time.Time // the pass is due once now >= next
	once  func(now time.Time)
}

// install adds a controller whose first pass is due one period from now.
func (s *Server) install(every time.Duration, once func(time.Time)) {
	s.controllers = append(s.controllers, controller{every: every, next: clock.Now().Time().Add(every), once: once})
}

// step runs every controller due at now. The control loop calls it with
// the ticker's time; tests drive it with synthetic times. Due times
// advance by whole periods so a controller keeps its own cadence
// whatever the loop's period is, and a stalled loop skips the periods it
// missed instead of bursting through them.
func (s *Server) step(now time.Time) {
	for i := range s.controllers {
		c := &s.controllers[i]
		if now.Before(c.next) {
			continue
		}
		c.once(now)
		if c.next = c.next.Add(c.every); !c.next.After(now) {
			c.next = now.Add(c.every)
		}
	}
}

// period is the control loop's ticker period: the smallest installed one.
func (s *Server) period() time.Duration {
	period := s.controllers[0].every
	for _, c := range s.controllers[1:] {
		period = min(period, c.every)
	}
	return period
}

// controlLoop is the control plane's one clock, stepping the
// controllers until Close.
func (s *Server) controlLoop() {
	defer s.control.Done()
	t := time.NewTicker(s.period())
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case now := <-t.C:
			s.step(now)
		}
	}
}

// decide records one control-plane decision in the decision log, for
// the loop's controllers and the per-shard batch tuners alike (the
// compile controller's record appends its own, carrying the
// contc.Decision). producer is the deciding shard's id, or len(shards)
// for the loop.
func (s *Server) decide(producer int, locale mem.Locale, format string, args ...any) {
	s.decisions.add(decision{producer: producer, locale: locale, label: fmt.Sprintf(format, args...)})
}

// decisionLogSize bounds the decision log: it keeps the most recent
// decisions and overwrites the oldest.
const decisionLogSize = 4096

// decision is one record of the decision log. A compile controller's
// record also carries its contc.Decision, which CompileDecisions reads.
type decision struct {
	seq      int64 // append order, from 1
	at       clock.Nanos
	producer int
	locale   mem.Locale
	label    string
	compile  *contc.Decision
}

// decisionLog is the control plane's one record of what it decided,
// present whenever a controller is installed. TraceDump renders it as
// the adapt timeline, CompileDecisions filters its compile records, and
// the observe snapshot counts its appends and overwrites.
type decisionLog struct {
	mu  sync.Mutex
	n   int64      // records ever appended
	buf []decision // record k sits at (k-1) % decisionLogSize
}

func (l *decisionLog) add(d decision) {
	l.mu.Lock()
	l.n++
	d.seq, d.at = l.n, clock.Now()
	if len(l.buf) < decisionLogSize {
		l.buf = append(l.buf, d)
	} else {
		l.buf[(l.n-1)%decisionLogSize] = d
	}
	l.mu.Unlock()
}

// records returns the retained records, oldest first (nil for a nil log).
func (l *decisionLog) records() []decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Before the ring fills, oldest = len(buf) and buf[oldest:] is empty.
	oldest := int(l.n % decisionLogSize)
	return append(append([]decision(nil), l.buf[oldest:]...), l.buf[:oldest]...)
}

// appended returns how many records were ever added (0 for a nil log).
func (l *decisionLog) appended() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// batchController retunes one shard's drain bound. Each batch SGT reads
// batch() before its drain, feeds the observed queue depth back through
// observeDepth, and reports its service time through observeLatency.
// All state is monitor-backed, so Snapshot exposes the same signals the
// controller acts on.
type batchController struct {
	srv      *Server // retunes land in the decision log through srv.decide
	sh       *shard
	max      int
	budgetUS float64
	cur      atomic.Int64
	depth    *monitor.EWMA      // queue depth at drain time
	lat      *monitor.Histogram // batch service latency, microseconds
	// Server-wide retune counters, shared by every shard's controller.
	grow, shrink *monitor.Counter
}

func newBatchController(s *Server, sh *shard, grow, shrink *monitor.Counter) *batchController {
	c := &batchController{
		srv:      s,
		sh:       sh,
		max:      s.cfg.Adapt.BatchMax,
		budgetUS: float64(s.cfg.Adapt.LatencyBudget) / float64(time.Microsecond),
		depth:    s.sys.Mon.EWMA(fmt.Sprintf("serve.shard%02d.depth", sh.id), 0.2),
		lat:      s.sys.Mon.Histogram(fmt.Sprintf("serve.shard%02d.batch_us", sh.id), batchLatencyBounds),
		grow:     grow,
		shrink:   shrink,
	}
	c.cur.Store(int64(min(s.cfg.Batch, c.max)))
	return c
}

// batch returns the current drain bound.
func (c *batchController) batch() int { return int(c.cur.Load()) }

// observeDepth folds one drain's queue depth into the EWMA and retunes:
// grow while the smoothed backlog runs ahead of the batch (amortize
// more per wakeup), shrink while the shard idles or batches take longer
// than the latency budget allows.
func (c *batchController) observeDepth(d int) {
	c.depth.Observe(float64(d))
	e := c.depth.Value()
	cur := int(c.cur.Load())
	next, what, n := cur, "grow", c.grow
	switch {
	case e > 2*float64(cur) && cur < c.max && c.latencyHeadroom():
		next = min(cur*2, c.max)
	case cur > 1 && (e*4 <= float64(cur) || !c.latencyHeadroom()):
		next, what, n = cur/2, "shrink", c.shrink
	default:
		return
	}
	// A shard's batch SGTs observe concurrently: one retune per step.
	if c.cur.CompareAndSwap(int64(cur), int64(next)) {
		n.Inc()
		c.srv.decide(c.sh.id, c.sh.locale, "batch %s %d -> %d (depth ewma %.1f)", what, cur, next, e)
	}
}

// observeLatency records one batch's service time in microseconds.
func (c *batchController) observeLatency(us float64) { c.lat.Observe(us) }

// latencyHeadroom reports whether the p99 batch service time still fits
// the budget; growth is gated on it, breach forces shrink.
func (c *batchController) latencyHeadroom() bool {
	if c.budgetUS <= 0 || c.lat.Total() < 8 {
		return true
	}
	return c.lat.QuantileUpperBound(0.99) <= c.budgetUS
}

// overloadController turns the admission-to-execution wait EWMA into a
// shed level: batch SGTs drop jobs with Priority < level at drain
// time, so overload sheds the least important work earliest instead of
// letting every queue run to its deadline.
type overloadController struct {
	srv      *Server
	budgetUS float64
	level    atomic.Int32
	shed     *monitor.Counter // jobs the level dropped; counted by Server.shedLow
}

func newOverloadController(s *Server) *overloadController {
	return &overloadController{
		srv:      s,
		budgetUS: float64(s.cfg.Adapt.LatencyBudget) / float64(time.Microsecond),
		shed:     s.sys.Mon.Counter("serve.adapt.shed_lowpri"),
	}
}

// once moves the shed level one step per pass: up while the server's
// wait EWMA exceeds the budget, down once it has recovered to half. One
// step at a time keeps the loop stable (no flapping on one noisy sample
// — the EWMA smooths the input, the single step damps the output).
func (o *overloadController) once(time.Time) {
	wait, prev := o.srv.waitUS.Value(), o.level.Load()
	cur := prev
	switch {
	case wait > o.budgetUS && prev < maxShedLevel:
		cur++
	case wait < o.budgetUS/2 && prev > 0:
		cur--
	default:
		return
	}
	o.level.Store(cur)
	o.srv.decide(len(o.srv.shards), 0, "overload shed level %d -> %d (wait ewma %.0fus)", prev, cur, wait)
}

// shedLevel is the current priority floor; jobs below it are shed.
// Safe on a nil controller (adaptivity off): the floor is 0 and no
// priority sheds.
func (o *overloadController) shedLevel() int {
	if o == nil {
		return 0
	}
	return int(o.level.Load())
}

// rebalanceController measures shard imbalance and steals queued jobs
// per the system's load controller (litlx.System.Load), as the locality
// controller applies the system's locality manager. The pending
// snapshot and the steal working memory live here (the loop serializes
// passes), so the common nothing-to-do pass allocates nothing.
type rebalanceController struct {
	srv                *Server
	imbalance          *monitor.EWMA
	steals, rebalances *monitor.Counter
	pending            []int
	scratch            stealScratch
}

func newRebalanceController(s *Server) *rebalanceController {
	return &rebalanceController{
		srv:        s,
		imbalance:  s.sys.Mon.EWMA("serve.adapt.imbalance", 0.2),
		steals:     s.sys.Mon.Counter("serve.adapt.steals"),
		rebalances: s.sys.Mon.Counter("serve.adapt.rebalances"),
		pending:    make([]int, len(s.shards)),
	}
}

func (r *rebalanceController) once(time.Time) {
	shards := r.srv.shards
	for i, sh := range shards {
		r.pending[i] = sh.pending()
	}
	load := r.srv.sys.Load
	imb := adapt.Imbalance(r.pending)
	r.imbalance.Observe(imb)
	if imb <= load.ImbalanceThreshold {
		return
	}
	moved := 0
	for _, p := range load.Plan(r.pending) {
		n := stealJobsInto(shards[p.From], shards[p.To], p.Count, &r.scratch)
		moved += n
		if n > 0 {
			r.srv.decide(len(shards), shards[p.To].locale,
				"rebalance: stole %d jobs shard %d -> %d (imbalance %.2f)", n, p.From, p.To, imb)
		}
	}
	if moved > 0 {
		r.steals.Add(int64(moved))
		r.rebalances.Inc()
	}
}

// localityController applies the system's locality manager's
// migrate/replicate plan over the shared space and decays its access
// counters. The serve layer is one of possibly many feeders of the
// space; the decision policy lives in internal/adapt.
type localityController struct {
	srv                      *Server
	migrations, replications *monitor.Counter
}

func newLocalityController(s *Server) *localityController {
	return &localityController{
		srv:          s,
		migrations:   s.sys.Mon.Counter("serve.adapt.migrations"),
		replications: s.sys.Mon.Counter("serve.adapt.replications"),
	}
}

func (l *localityController) once(time.Time) {
	actions, _ := l.srv.sys.Locality.Rebalance()
	for _, a := range actions {
		switch a.Kind {
		case "migrate":
			l.migrations.Inc()
		case "replicate":
			l.replications.Inc()
		}
		l.srv.decide(len(l.srv.shards), a.To, "locality %s obj %d -> locale %d", a.Kind, a.Obj, a.To)
	}
}

// AdaptStats is a point-in-time view of the control plane, read off
// the controllers that own each counter; a counter here appears on no
// other stats struct (Stats.Steals is the one documented mirror).
type AdaptStats struct {
	// Enabled mirrors Config.Adapt.Enabled.
	Enabled bool
	// BatchSizes is the current per-shard adaptive drain bound (the
	// static Config.Batch everywhere when adaptivity is off).
	BatchSizes []int
	// Pending is the per-shard queued-job count.
	Pending []int
	// BatchGrows / BatchShrinks count batch-bound retunes.
	BatchGrows, BatchShrinks int64
	// Steals counts jobs moved between shards (Stats.Flow.StageSteals is
	// the subset that were pipeline stage jobs); Rebalances counts
	// control passes that moved at least one.
	Steals, Rebalances int64
	// Imbalance is the smoothed max/mean pending ratio the rebalancer
	// steers by.
	Imbalance float64
	// Migrations / Replications count the locality loop's data
	// movements across the shared space (zero unless Adapt.Locality).
	Migrations, Replications int64
	// ShedLevel is the current overload priority floor, steered by
	// Stats.WaitEWMAus; ShedLowPriority counts jobs it dropped (they
	// also count in Stats.Shed).
	ShedLevel       int
	ShedLowPriority int64
	// Continuous-compilation loop (all zero when Config.Compile is
	// off). CompilePlans counts installed scatter plans (warm restores
	// included), CompileSwaps the subset that replaced a live plan after
	// drift; HotPromotions / HotDemotions count fast-path slot moves;
	// FastPathHits counts dispatches served by a promoted handler;
	// ScatteredElems counts fan-out elements placed by a learned plan
	// instead of the default key route.
	CompileEnabled               bool
	CompilePlans, CompileSwaps   int64
	HotPromotions, HotDemotions  int64
	FastPathHits, ScatteredElems int64
}

// AdaptStats snapshots the control plane's inputs and outputs.
func (s *Server) AdaptStats() AdaptStats {
	st := AdaptStats{
		Enabled:        s.cfg.Adapt.Enabled,
		BatchSizes:     make([]int, len(s.shards)),
		Pending:        make([]int, len(s.shards)),
		CompileEnabled: s.cfg.Compile.Enabled,
	}
	if o := s.overload; o != nil {
		st.ShedLevel, st.ShedLowPriority = o.shedLevel(), o.shed.Value()
	}
	if r := s.rebalance; r != nil {
		st.Steals, st.Rebalances = r.steals.Value(), r.rebalances.Value()
		st.Imbalance = r.imbalance.Value()
	}
	if l := s.localize; l != nil {
		st.Migrations, st.Replications = l.migrations.Value(), l.replications.Value()
	}
	if c := s.comp; c != nil {
		st.CompilePlans, st.CompileSwaps = c.plans.Value(), c.swaps.Value()
		st.HotPromotions, st.HotDemotions = c.promotions.Value(), c.demotions.Value()
		st.FastPathHits, st.ScatteredElems = c.fastHits.Value(), c.scattered.Value()
	}
	for i, sh := range s.shards {
		st.Pending[i] = sh.pending()
		st.BatchSizes[i] = s.cfg.Batch
		if sh.ctrl != nil {
			st.BatchSizes[i] = sh.ctrl.batch()
			// Every shard's tuner shares the server-wide retune counters.
			st.BatchGrows, st.BatchShrinks = sh.ctrl.grow.Value(), sh.ctrl.shrink.Value()
		}
	}
	return st
}
