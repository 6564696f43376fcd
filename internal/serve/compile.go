package serve

// This file wires the continuous-compilation controller (Config.Compile,
// the control plane's fourth loop entry) into the server. The mechanism —
// key sketch, fan-out planner, decision log — lives in
// internal/serve/contc; this file owns the serve-side state it drives:
// the per-tenant admission sketch, the (tenant, key) fast-path slot
// table consulted at dispatch, and the per-stage scatter plan fanOut
// reads. The paper's continuous compiler re-optimizes running code from
// monitor feedback; here the "code" is a tenant's serving policy: which
// sched.Factory scatters its Map fan-outs across shards, and which hot
// keys run a specialized handler. Every decision is recorded as facts
// and hints in a hints.DB, so a restart fed the persisted DB
// (htserved -hints-file) starts from the learned policy instead of
// re-learning it.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hints"
	"repro/internal/monitor"
	"repro/internal/serve/contc"
)

// CompileConfig switches on the continuous-compilation controller. The
// zero value leaves it off: no sketch on the admission path, no fast
// table at dispatch, no scatter override in fanOut — each a single nil
// check.
type CompileConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// DB is the knowledge database decisions are recorded into and warm
	// starts are read from. Nil makes a fresh, empty DB (cold start);
	// pass a DB loaded from a persisted script (hints.ParseScript) to
	// start warm, and export it with hints.DB.WriteScript at shutdown.
	DB *hints.DB
	// Every is the controller's period on the server's control loop
	// (default 8*Adapt.RebalanceEvery when the adaptivity loop is on,
	// else 2ms).
	Every time.Duration
	// MinSamples is the fan-out element observations a stage must
	// accumulate — since its last plan — before the controller will
	// (re)plan its scatter (default 64).
	MinSamples int
	// ReplanDrift is the factor by which a stage's observed mean element
	// cost must drift from the planned-against mean to force a re-plan;
	// a coefficient-of-variation move of more than 0.5 also forces one
	// (default 1.5).
	ReplanDrift float64
	// HotKeyMin is the sketch frequency estimate at which a (tenant,
	// key) is promoted to a fast-path slot; it is demoted when the
	// (decaying) estimate falls below half of this (default 128).
	HotKeyMin int64
	// MaxHot bounds the fast-path slots per tenant (default 8).
	MaxHot int
	// SketchWidth is the count-min row width, rounded up to a power of
	// two (default 512).
	SketchWidth int
	// DecayEvery halves the sketch counters every this many controller
	// ticks, so cooled keys demote (default 16).
	DecayEvery int
}

func (c CompileConfig) withDefaults(base Config) CompileConfig {
	if !c.Enabled {
		return c
	}
	if c.Every <= 0 {
		if base.Adapt.Enabled {
			c.Every = 8 * base.Adapt.RebalanceEvery
		} else {
			c.Every = 2 * time.Millisecond
		}
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.ReplanDrift <= 1 {
		c.ReplanDrift = 1.5
	}
	if c.HotKeyMin <= 0 {
		c.HotKeyMin = 128
	}
	if c.MaxHot <= 0 {
		c.MaxHot = 8
	}
	if c.SketchWidth <= 0 {
		c.SketchWidth = 512
	}
	if c.DecayEvery <= 0 {
		c.DecayEvery = 16
	}
	return c
}

// compileController is the serve-side state of the continuous
// compiler. Its mutable fields are touched only from the control loop
// (which serializes once, like every controller's pass); everything the
// hot path reads — sketch counters, fast slots, scatter plans, the two
// hit counters — is atomic.
type compileController struct {
	srv     *Server
	cfg     CompileConfig
	db      *hints.DB
	planner *contc.Planner
	log     *contc.Log
	tick    int64
	warmed  map[string]bool // tenants whose warm-start pass already ran

	plans, swaps, promotions, demotions *monitor.Counter
	// fastHits is counted by execute, scattered by fanOut.
	fastHits, scattered *monitor.Counter
}

func newCompileController(s *Server) *compileController {
	db := s.cfg.Compile.DB
	if db == nil {
		db = hints.NewDB()
	}
	mon := s.sys.Mon
	return &compileController{
		srv:        s,
		cfg:        s.cfg.Compile,
		db:         db,
		planner:    contc.NewPlanner(db, mon),
		log:        contc.NewLog(512),
		warmed:     make(map[string]bool),
		plans:      mon.Counter("serve.contc.plans"),
		swaps:      mon.Counter("serve.contc.swaps"),
		promotions: mon.Counter("serve.contc.promotions"),
		demotions:  mon.Counter("serve.contc.demotions"),
		fastHits:   mon.Counter("serve.contc.fast_hits"),
		scattered:  mon.Counter("serve.contc.scattered"),
	}
}

// record logs one decision and emits its label on the adapt timeline:
// the label is rendered from the logged record, so the two cannot drift.
func (c *compileController) record(d contc.Decision) {
	c.srv.decide(len(c.srv.shards), 0, "contc %v", c.log.Add(d))
}

// HintsDB returns the controller's knowledge database (nil when
// Config.Compile is off). Callers persist it with hints.DB.WriteScript
// and warm future servers by passing it back through CompileConfig.DB.
func (s *Server) HintsDB() *hints.DB {
	if s.comp == nil {
		return nil
	}
	return s.comp.db
}

// CompileDecisions returns the retained controller decisions, oldest
// first (nil when Config.Compile is off).
func (s *Server) CompileDecisions() []contc.Decision {
	if s.comp == nil {
		return nil
	}
	return s.comp.log.Snapshot()
}

// ---------------------------------------------------------------------
// Fast-path slot table: (tenant, key) -> specialized handler.

// fastSlot is one installed fast path. Immutable after publication:
// promotion and demotion swap whole slots.
type fastSlot struct {
	key     uint64
	handler Handler
}

// fastTable is a tenant's fast-path slots, indexed by a key hash with
// no probing — at most one candidate slot per key, so the dispatch-side
// check is one load and one compare. A slot is invalidated by swapping
// or nil-ing it.
type fastTable struct {
	mask  uint64
	slots []atomic.Pointer[fastSlot]
}

func newFastTable(maxHot int) *fastTable {
	n := 8
	for n < 2*maxHot {
		n <<= 1
	}
	return &fastTable{mask: uint64(n - 1), slots: make([]atomic.Pointer[fastSlot], n)}
}

func (ft *fastTable) index(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h & ft.mask
}

// lookup returns the specialized handler for key, or nil. Hot path:
// zero allocations, one pointer load on the common miss.
func (ft *fastTable) lookup(key uint64) Handler {
	sl := ft.slots[ft.index(key)].Load()
	if sl == nil || sl.key != key {
		return nil
	}
	return sl.handler
}

// installed returns the resident keys, ascending. Controller-side.
func (ft *fastTable) installed() []uint64 {
	var keys []uint64
	for i := range ft.slots {
		if sl := ft.slots[i].Load(); sl != nil {
			keys = append(keys, sl.key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ---------------------------------------------------------------------
// Per-stage scatter plan.

// scatterPlan is the plan fanOut reads, plus the observation count it
// was planned at so the controller demands fresh evidence before
// re-planning.
type scatterPlan struct {
	plan      *contc.Plan
	samplesAt int64
}

// observeElem folds one fan-out element's service time into the
// stage's cost estimators. Called from finishJob on the executing SGT;
// all-atomic, zero allocations. No-op for stages the controller does
// not instrument (costUS nil — compile off, or a non-Map stage).
func (st *pipeStage) observeElem(res Result) {
	if st.costUS == nil || res.Status != StatusOK {
		return
	}
	us := float64(res.Total-res.Wait) / float64(time.Microsecond)
	if us < 0 {
		us = 0
	}
	st.costUS.Observe(us)
	st.costSq.Observe(us * us)
	st.costN.Inc()
}

// scatterTargets materializes the per-element shard assignment for one
// fan-out under the plan. The target buffer is pooled: fan-outs are
// frequent under load and the assignment is strictly loop-local.
var targetPool = sync.Pool{New: func() any { return new([]int) }}

func scatterTargets(sp *scatterPlan, n, shards int) *[]int {
	bufp := targetPool.Get().(*[]int)
	if cap(*bufp) < n {
		*bufp = make([]int, n)
	}
	*bufp = (*bufp)[:n]
	sp.plan.Assign(n, shards, *bufp)
	return bufp
}

// ---------------------------------------------------------------------
// The controller itself.

// once runs one continuous-compilation pass over every tenant: refresh
// hot-key promotions from the admission sketch, and (re)plan each
// instrumented Map stage's scatter from its observed element-cost
// statistics.
func (c *compileController) once(time.Time) {
	c.tick++
	decay := c.tick%int64(c.cfg.DecayEvery) == 0
	c.srv.tenants.Range(func(_, v any) bool {
		t := v.(*Tenant)
		if t.sketch == nil {
			return true
		}
		c.hotKeys(t)
		if decay {
			t.sketch.Decay()
		}
		for _, p := range t.pipelines() {
			for _, st := range p.stages {
				if st.costUS != nil {
					c.planStage(t, p, st)
				}
			}
		}
		return true
	})
}

// stageHintName is the hints.DB key space of one stage's learned plan.
func stageHintName(t *Tenant, p *Pipeline, st *pipeStage) string {
	return "contc." + t.name + "." + p.name + "." + st.name
}

// planStage (re)plans one Map stage's scatter. First call with a
// persisted hint installs the learned plan immediately — the warm
// start; otherwise the stage must accumulate MinSamples fresh element
// observations, and an installed plan is only swapped when the observed
// cost statistics drifted beyond the config thresholds.
func (c *compileController) planStage(t *Tenant, p *Pipeline, st *pipeStage) {
	shards := len(c.srv.shards)
	name := stageHintName(t, p, st)
	cur := st.scatter.Load()
	n := st.costN.Value()
	if cur == nil {
		if h, ok := c.db.Hint(name); ok {
			strat := hints.ParamString(h.Params, "strategy", "")
			if f, okf := contc.FactoryFor(strat); okf {
				mean, _ := c.db.Fact(name + ".mean_us")
				cv, _ := c.db.Fact(name + ".cv")
				plan := &contc.Plan{
					Strategy: strat, Factory: f,
					Fan:     hints.ParamInt(h.Params, "fan", 0),
					Workers: shards, MeanUS: mean, CV: cv,
				}
				c.installPlan(t, p, st, plan, n, contc.KindWarmPlan, "restored from hints db")
				return
			}
		}
	}
	fan := int(st.lastFan.Load())
	if fan <= 1 || n < int64(c.cfg.MinSamples) {
		return
	}
	if cur != nil && n-cur.samplesAt < int64(c.cfg.MinSamples) {
		return
	}
	mean := st.costUS.Value()
	if mean <= 0 {
		return
	}
	varr := st.costSq.Value() - mean*mean
	if varr < 0 {
		varr = 0
	}
	cv := math.Sqrt(varr) / mean
	if cur != nil && cur.plan != nil {
		d := c.cfg.ReplanDrift
		driftLo, driftHi := cur.plan.MeanUS/d, cur.plan.MeanUS*d
		if mean > driftLo && mean < driftHi && math.Abs(cv-cur.plan.CV) <= 0.5 {
			return // within the planned-against regime: keep the plan
		}
	}
	plan := c.planner.Plan(name, fan, shards, mean, cv)
	if cur != nil && cur.plan != nil && plan.Strategy == cur.plan.Strategy {
		// Same strategy under the new statistics: refresh the basis the
		// drift test compares against, without counting a swap.
		st.scatter.Store(&scatterPlan{plan: plan, samplesAt: n})
		return
	}
	kind := contc.KindPlan
	if cur != nil {
		kind = contc.KindReplan
	}
	c.installPlan(t, p, st, plan, n,
		kind, fmt.Sprintf("mean %.0fus cv %.2f fan %d", mean, cv, fan))
}

// installPlan publishes a scatter plan and records the decision
// everywhere it must land: the stage's atomic slot (the hot path),
// counters, the decision log and adapt timeline (record), and the hints
// DB (facts + a runtime hint) for warm restarts.
func (c *compileController) installPlan(t *Tenant, p *Pipeline, st *pipeStage, plan *contc.Plan, n int64, kind, reason string) {
	st.scatter.Store(&scatterPlan{plan: plan, samplesAt: n})
	c.plans.Inc()
	if kind == contc.KindReplan {
		c.swaps.Inc()
	}
	name := stageHintName(t, p, st)
	c.db.SetFact(name+".mean_us", plan.MeanUS)
	c.db.SetFact(name+".cv", plan.CV)
	c.db.SetFact(name+".fan", float64(plan.Fan))
	// TargetRuntime, not TargetCompiler: a compiler-target hint would
	// leak into compiler.StaticCompile's Effective() merge and force
	// this stage's strategy onto every other nest. The runtime category
	// keeps the record per-stage; warm starts read it back by name.
	_ = c.db.AddHint(&hints.Hint{
		Name: name, Target: hints.TargetRuntime, Category: hints.CatComputation,
		Priority: 60,
		Params: map[string]string{
			"strategy": plan.Strategy,
			"fan":      strconv.Itoa(plan.Fan),
		},
	})
	c.record(contc.Decision{
		Kind: kind, Tenant: t.name, Pipeline: p.name, Stage: st.name,
		Strategy: plan.Strategy, Fan: plan.Fan, MeanUS: plan.MeanUS, CV: plan.CV,
		Reason: reason,
	})
}

// hotKeys reconciles one tenant's fast-path slots with its sketch:
// warm-restore the persisted hot set on the first pass, promote keys
// whose frequency estimate crossed HotKeyMin, demote installed keys that
// cooled below half of it.
func (c *compileController) hotKeys(t *Tenant) {
	hname := "contc.hot." + t.name
	warmPass := !c.warmed[t.name]
	if warmPass {
		c.warmed[t.name] = true
		if h, ok := c.db.Hint(hname); ok {
			for _, ks := range strings.Split(hints.ParamString(h.Params, "keys", ""), ",") {
				if key, err := strconv.ParseUint(ks, 10, 64); err == nil {
					c.promoteKey(t, key, 0, contc.KindWarmPromote)
				}
			}
		}
	}
	for _, kc := range t.sketch.Top(c.cfg.MaxHot) {
		if kc.Count < c.cfg.HotKeyMin {
			break
		}
		c.promoteKey(t, kc.Key, kc.Count, contc.KindPromote)
	}
	if warmPass {
		// Warm-restored keys have no sketch evidence yet — demoting them
		// now would undo the restore before any traffic could confirm it.
		// They face the cooling test from the next tick on, like any
		// promoted key.
		return
	}
	changed := false
	for i := range t.fast.slots {
		sl := t.fast.slots[i].Load()
		if sl == nil {
			continue
		}
		if t.sketch.Estimate(sl.key) < c.cfg.HotKeyMin/2 {
			t.fast.slots[i].Store(nil)
			c.demotions.Inc()
			changed = true
			c.record(contc.Decision{Kind: contc.KindDemote, Tenant: t.name, Key: sl.key, Reason: "key cooled"})
		}
	}
	if changed {
		c.persistHotSet(t, hname)
	}
}

// promoteKey installs a fast-path slot for (t, key) unless one is
// already resident. The handler is the tenant's Specialize hook when it
// provides one (composed into the same middleware chains the plain
// handler runs), else the solo stage's composed handler itself — the
// slot then still models specialization: dispatch skips the stage
// indirection.
func (c *compileController) promoteKey(t *Tenant, key uint64, count int64, kind string) {
	idx := t.fast.index(key)
	if sl := t.fast.slots[idx].Load(); sl != nil {
		return // occupied: same key resident, or a collision — hotter key keeps it
	}
	h := t.solo.stages[0].handler
	if t.specialize != nil {
		if sp := t.specialize(key); sp != nil {
			h = composeMiddleware(sp, t.mw, c.srv.cfg.Middleware)
		}
	}
	t.fast.slots[idx].Store(&fastSlot{key: key, handler: h})
	c.promotions.Inc()
	c.record(contc.Decision{Kind: kind, Tenant: t.name, Key: key,
		Reason: fmt.Sprintf("sketch count %d", count)})
	c.persistHotSet(t, "contc.hot."+t.name)
}

// persistHotSet records the tenant's resident hot keys in the hints DB
// so a restart re-installs them before any traffic is sketched.
func (c *compileController) persistHotSet(t *Tenant, hname string) {
	keys := t.fast.installed()
	if len(keys) == 0 {
		return
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = strconv.FormatUint(k, 10)
	}
	_ = c.db.AddHint(&hints.Hint{
		Name: hname, Target: hints.TargetRuntime, Category: hints.CatAccess,
		Priority: 60, Params: map[string]string{"keys": strings.Join(parts, ",")},
	})
	c.db.SetFact(hname+".count", float64(len(keys)))
}
