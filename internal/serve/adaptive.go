package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/mem"
	"repro/internal/monitor"
)

// AdaptConfig switches on the serve layer's closed adaptivity loop —
// the paper's always-on-monitoring-feeds-controllers design (Section 2)
// applied to request serving. Three controllers run against the live
// monitor instruments:
//
//   - batch sizing: each dispatcher retunes its drain bound from a
//     per-shard queue-depth EWMA, growing batches while the backlog
//     deepens (amortization) and shrinking them while the shard idles
//     or its batch-latency histogram breaches the budget;
//   - load rebalancing: a periodic controller feeds per-shard pending
//     counts through adapt.Imbalance / adapt.LoadController.Plan and
//     steals queued jobs from hot shards into idle ones, never moving a
//     job whose (tenant, key) has a queued sibling (co-queued same-key
//     jobs keep their queue order; see stealJobsInto) and never onto a
//     shard where the tenant's code image is not resident;
//   - overload control: when the admission-to-execution wait EWMA
//     crosses LatencyBudget, the shed level rises and dispatchers drop
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
	// BatchMin / BatchMax bound the adaptive drain batch (defaults 1
	// and 4*Batch). Config.Batch is the starting point, clamped into
	// this range.
	BatchMin, BatchMax int
	// RebalanceEvery is the control-loop period for stealing and
	// overload decisions (default 1ms).
	RebalanceEvery time.Duration
	// StealThreshold is the max/mean pending ratio above which the
	// rebalancer steals (default 2, adapt.LoadController's default).
	StealThreshold float64
	// LatencyBudget is the admission-to-execution wait the overload
	// controller defends (default: DefaultDeadline if set, else 10ms).
	LatencyBudget time.Duration
	// MaxShedLevel caps the overload shed level: jobs with Priority >=
	// MaxShedLevel are never shed by the overload controller (default 4).
	MaxShedLevel int
	// Locality turns on the locality loop: every LocalityEvery the
	// server runs the system's adapt.LocalityManager over the shared
	// space, applying its migrate/replicate plan and decaying the
	// access counters.
	Locality bool
	// LocalityEvery is the locality loop period (default
	// 8*RebalanceEvery). It should be long enough for objects to accrue
	// MinAccesses-worth of history between decays.
	LocalityEvery time.Duration
}

func (a AdaptConfig) withDefaults(base Config) AdaptConfig {
	if !a.Enabled {
		return a
	}
	if a.BatchMin <= 0 {
		a.BatchMin = 1
	}
	if a.BatchMax <= 0 {
		a.BatchMax = 4 * base.Batch
	}
	if a.BatchMax < a.BatchMin {
		a.BatchMax = a.BatchMin
	}
	if a.RebalanceEvery <= 0 {
		a.RebalanceEvery = time.Millisecond
	}
	if a.StealThreshold <= 0 {
		a.StealThreshold = 2
	}
	if a.LatencyBudget <= 0 {
		if base.DefaultDeadline > 0 {
			a.LatencyBudget = base.DefaultDeadline
		} else {
			a.LatencyBudget = 10 * time.Millisecond
		}
	}
	if a.MaxShedLevel <= 0 {
		a.MaxShedLevel = 4
	}
	if a.Locality && a.LocalityEvery <= 0 {
		a.LocalityEvery = 8 * a.RebalanceEvery
	}
	return a
}

// batchLatencyBounds bucket one batch's service time in microseconds.
var batchLatencyBounds = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// batchController retunes one shard's drain bound. The dispatcher reads
// batch() before every drain and feeds the observed queue depth back
// through observeDepth; the batch SGT reports its service time through
// observeLatency. All state is monitor-backed, so Snapshot exposes the
// same signals the controller acts on.
type batchController struct {
	min, max int
	budgetUS float64
	cur      atomic.Int64
	depth    *monitor.EWMA      // queue depth at drain time
	lat      *monitor.Histogram // batch service latency, microseconds
	grow     *monitor.Counter   // server-wide serve.adapt.batch_grow
	shrink   *monitor.Counter   // server-wide serve.adapt.batch_shrink
	obs      *observer          // nil unless Config.Observe: retunes land on the adapt timeline
	shard    int
	locale   mem.Locale
}

func newBatchController(mon *monitor.Monitor, shard int, cfg Config, obs *observer, locale mem.Locale) *batchController {
	c := &batchController{
		min:      cfg.Adapt.BatchMin,
		max:      cfg.Adapt.BatchMax,
		budgetUS: float64(cfg.Adapt.LatencyBudget) / float64(time.Microsecond),
		depth:    mon.EWMA(fmt.Sprintf("serve.shard%02d.depth", shard), 0.2),
		lat:      mon.Histogram(fmt.Sprintf("serve.shard%02d.batch_us", shard), batchLatencyBounds),
		grow:     mon.Counter("serve.adapt.batch_grow"),
		shrink:   mon.Counter("serve.adapt.batch_shrink"),
		obs:      obs,
		shard:    shard,
		locale:   locale,
	}
	start := cfg.Batch
	if start < c.min {
		start = c.min
	}
	if start > c.max {
		start = c.max
	}
	c.cur.Store(int64(start))
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
	switch {
	case e > 2*float64(cur) && cur < c.max && c.latencyHeadroom():
		next := cur * 2
		if next > c.max {
			next = c.max
		}
		c.cur.Store(int64(next))
		c.grow.Inc()
		if c.obs != nil {
			c.obs.adapt(c.shard, c.locale,
				fmt.Sprintf("batch grow %d -> %d (depth ewma %.1f)", cur, next, e))
		}
	case cur > c.min && (e*4 <= float64(cur) || !c.latencyHeadroom()):
		next := cur / 2
		if next < c.min {
			next = c.min
		}
		c.cur.Store(int64(next))
		c.shrink.Inc()
		if c.obs != nil {
			c.obs.adapt(c.shard, c.locale,
				fmt.Sprintf("batch shrink %d -> %d (depth ewma %.1f)", cur, next, e))
		}
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
// shed level: dispatchers drop jobs with Priority < level at drain
// time, so overload sheds the least important work earliest instead of
// letting every queue run to its deadline.
type overloadController struct {
	budgetUS float64
	maxLevel int32
	level    atomic.Int32
}

func newOverloadController(a AdaptConfig) *overloadController {
	return &overloadController{
		budgetUS: float64(a.LatencyBudget) / float64(time.Microsecond),
		maxLevel: int32(a.MaxShedLevel),
	}
}

// update moves the shed level one step per control tick: up while the
// wait EWMA exceeds the budget, down once it has recovered to half.
// One step at a time keeps the loop stable (no flapping on one noisy
// sample — the EWMA smooths the input, the single step damps the output).
func (o *overloadController) update(waitUS float64) {
	switch l := o.level.Load(); {
	case waitUS > o.budgetUS && l < o.maxLevel:
		o.level.Store(l + 1)
	case waitUS < o.budgetUS/2 && l > 0:
		o.level.Store(l - 1)
	}
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

// controlLoop is the serve layer's periodic controller: every
// RebalanceEvery it reevaluates the overload level and rebalances the
// shards, and every LocalityEvery it rebalances the data plane. It runs
// until Close.
func (s *Server) controlLoop() {
	defer s.control.Done()
	// The base period is the adaptivity cadence; with adaptivity off the
	// loop exists only for the continuous compiler, so its cadence is
	// the period.
	period := s.cfg.Adapt.RebalanceEvery
	if period <= 0 {
		period = s.cfg.Compile.Every
	}
	t := time.NewTicker(period)
	defer t.Stop()
	// The locality and continuous-compilation loops share the control
	// ticker: each fires once per its own multiple of the base period
	// rather than on its own timer, so Close has exactly one loop to
	// stop.
	localityTicks := 0
	if s.locality != nil {
		localityTicks = int(s.cfg.Adapt.LocalityEvery / period)
		if localityTicks < 1 {
			localityTicks = 1
		}
	}
	compileTicks := 0
	if s.comp != nil {
		compileTicks = int(s.cfg.Compile.Every / period)
		if compileTicks < 1 {
			compileTicks = 1
		}
	}
	tick := 0
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		if s.load != nil {
			s.adaptOnce()
		}
		tick++
		if localityTicks > 0 && tick%localityTicks == 0 {
			s.localityOnce()
		}
		if compileTicks > 0 && tick%compileTicks == 0 {
			s.compileOnce()
		}
	}
}

// localityOnce runs one locality-loop iteration: apply the locality
// manager's migrate/replicate plan over the shared space and decay its
// access counters, publishing the movements to the monitor. Split out
// so tests and experiments can drive the loop deterministically.
func (s *Server) localityOnce() {
	if s.locality == nil {
		return
	}
	actions, _ := s.locality.Rebalance()
	for _, a := range actions {
		switch a.Kind {
		case "migrate":
			s.migrations.Inc()
		case "replicate":
			s.replications.Inc()
		}
		if s.obs != nil {
			s.obs.adapt(len(s.shards), a.To,
				fmt.Sprintf("locality %s obj %d -> locale %d", a.Kind, a.Obj, a.To))
		}
	}
}

// adaptOnce runs one control iteration: refresh the overload level from
// the wait EWMA, then measure shard imbalance and steal per the load
// controller's migration plan. Split out so tests can drive the loop
// deterministically.
func (s *Server) adaptOnce() {
	// The control loop's own decisions are attributed to producer
	// len(shards) on the adapt timeline — one id past the shard range.
	ctl := len(s.shards)
	wait := s.waitUS.Value()
	prevLevel := s.overload.shedLevel()
	s.overload.update(wait)
	if cur := s.overload.shedLevel(); cur != prevLevel && s.obs != nil {
		s.obs.adapt(ctl, 0,
			fmt.Sprintf("overload shed level %d -> %d (wait ewma %.0fus)", prevLevel, cur, wait))
	}
	// The pending snapshot and steal scratch are hoisted onto the server
	// (adaptOnce runs only on the control loop): the common nothing-to-do
	// tick allocates nothing.
	if cap(s.pendingBuf) < len(s.shards) {
		s.pendingBuf = make([]int, len(s.shards))
	}
	pending := s.pendingBuf[:len(s.shards)]
	for i, sh := range s.shards {
		pending[i] = sh.pending()
	}
	imb := adapt.Imbalance(pending)
	s.imbalance.Observe(imb)
	if imb <= s.load.ImbalanceThreshold {
		return
	}
	moved := 0
	for _, p := range s.load.Plan(pending) {
		n := stealJobsInto(s.shards[p.From], s.shards[p.To], p.Count, &s.stealSc)
		moved += n
		if n > 0 && s.obs != nil {
			s.obs.adapt(ctl, s.shards[p.To].locale,
				fmt.Sprintf("rebalance: stole %d jobs shard %d -> %d (imbalance %.2f)", n, p.From, p.To, imb))
		}
	}
	if moved > 0 {
		s.steals.Add(int64(moved))
		s.rebalances.Inc()
	}
}

// AdaptStats is a point-in-time view of the adaptivity loop.
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
	// Steals counts jobs moved between shards; Rebalances counts
	// control ticks that moved at least one. StageSteals is the subset
	// of steals that moved pipeline stage jobs (flows rebalance like
	// any other work).
	Steals, Rebalances, StageSteals int64
	// Migrations / Replications count the locality loop's data
	// movements across the shared space (zero unless Adapt.Locality).
	Migrations, Replications int64
	// ShedLevel is the current overload priority floor;
	// ShedLowPriority counts jobs it dropped.
	ShedLevel       int
	ShedLowPriority int64
	// WaitEWMAus is the admission-to-execution wait estimate the
	// overload controller steers by; Imbalance is the smoothed max/mean
	// pending ratio the rebalancer steers by.
	WaitEWMAus, Imbalance float64
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

// AdaptStats snapshots the adaptivity loop's inputs and outputs.
func (s *Server) AdaptStats() AdaptStats {
	st := AdaptStats{
		Enabled:         s.cfg.Adapt.Enabled,
		BatchSizes:      make([]int, len(s.shards)),
		Pending:         make([]int, len(s.shards)),
		BatchGrows:      s.batchGrow.Value(),
		BatchShrinks:    s.batchShrink.Value(),
		Steals:          s.steals.Value(),
		Rebalances:      s.rebalances.Value(),
		StageSteals:     s.flowSteals.Value(),
		Migrations:      s.migrations.Value(),
		Replications:    s.replications.Value(),
		ShedLevel:       s.overload.shedLevel(),
		ShedLowPriority: s.shedLowPri.Value(),
		WaitEWMAus:      s.waitUS.Value(),
		CompileEnabled:  s.cfg.Compile.Enabled,
		CompilePlans:    s.compPlans.Value(),
		CompileSwaps:    s.compSwaps.Value(),
		HotPromotions:   s.compPromote.Value(),
		HotDemotions:    s.compDemote.Value(),
		FastPathHits:    s.compFastHits.Value(),
		ScatteredElems:  s.compScatter.Value(),
	}
	if s.imbalance != nil {
		st.Imbalance = s.imbalance.Value()
	}
	for i, sh := range s.shards {
		st.Pending[i] = sh.pending()
		if sh.ctrl != nil {
			st.BatchSizes[i] = sh.ctrl.batch()
		} else {
			st.BatchSizes[i] = s.cfg.Batch
		}
	}
	return st
}
