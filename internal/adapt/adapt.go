// Package adapt implements the four classes of runtime adaptivity the
// paper identifies as critical (Section 2):
//
//  1. loop parallelism adaptation — retuning grain size and strategy of
//     parallel loops (LoopController, over internal/sched);
//  2. dynamic load adaptation — thread migration to rebalance load
//     (LoadController, deciding stealing policy and migration plans);
//  3. locality adaptation — data object migration and replication with
//     consistency preserved (LocalityManager, over internal/mem);
//  4. latency adaptation — adjusting latency-hiding machinery as
//     observed latencies drift (LatencyController, steering percolation
//     depth and fetch-vs-parcel decisions).
//
// Controllers are deliberately pure decision components: they consume
// monitor snapshots, hint parameters, and directory statistics, and
// emit actions the runtime applies. That keeps every policy unit-
// testable and lets the experiment harness ablate them one by one.
package adapt

import (
	"fmt"

	"repro/internal/hints"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/sched"
)

// ---------------------------------------------------------------------
// 1. Loop parallelism adaptation.

// LoopController picks and retunes loop-scheduling strategies per loop,
// combining domain hints with observed profiles.
type LoopController struct {
	DB    *hints.DB
	ctrls map[string]*sched.Adaptive
}

// NewLoopController creates a controller backed by the knowledge DB
// (nil is allowed: pure profile-driven adaptation).
func NewLoopController(db *hints.DB) *LoopController {
	return &LoopController{DB: db, ctrls: make(map[string]*sched.Adaptive)}
}

// Adaptive returns (creating on demand) the per-loop adaptive tuner.
func (c *LoopController) Adaptive(loop string) *sched.Adaptive {
	a, ok := c.ctrls[loop]
	if !ok {
		a = sched.NewAdaptive()
		c.ctrls[loop] = a
	}
	return a
}

// FactoryFor resolves the scheduling strategy for the named loop from
// the effective hint parameters: strategy in {static, cyclic, self,
// chunked, gss, factoring, trapezoid, adaptive} with an optional chunk
// parameter. Unknown or missing strategies default to adaptive — the
// paper's position is that static choices are the fallback, not the
// default.
func (c *LoopController) FactoryFor(loop string) sched.Factory {
	params := map[string]string{}
	if c.DB != nil {
		params = c.DB.Effective(hints.TargetCompiler, hints.CatComputation)
	}
	chunk := hints.ParamInt(params, "chunk", 0)
	switch hints.ParamString(params, "strategy", "adaptive") {
	case "static":
		return sched.StaticBlock()
	case "cyclic":
		return sched.StaticCyclic(chunk)
	case "self":
		return sched.SelfSched(1)
	case "chunked":
		return sched.SelfSched(chunk)
	case "gss":
		return sched.GSS(chunk)
	case "factoring":
		return sched.Factoring(chunk)
	case "trapezoid":
		return sched.Trapezoid(chunk, 0)
	default:
		return c.Adaptive(loop).Factory()
	}
}

// Retune folds the last execution's profile into the per-loop tuner.
func (c *LoopController) Retune(loop string, n, p int) int {
	return c.Adaptive(loop).Retune(n, p)
}

// ---------------------------------------------------------------------
// 2. Dynamic load adaptation.

// LoadController decides when thread migration is worth its cost.
type LoadController struct {
	// ImbalanceThreshold is the max/mean queue-length ratio above which
	// global stealing is enabled (default 2).
	ImbalanceThreshold float64
}

// NewLoadController returns a controller with default thresholds.
func NewLoadController() *LoadController {
	return &LoadController{ImbalanceThreshold: 2}
}

// Imbalance returns max/mean of the per-locale pending-work counts
// (1.0 = perfectly balanced; 0 when idle).
func Imbalance(pending []int) float64 {
	if len(pending) == 0 {
		return 0
	}
	max, sum := 0, 0
	for _, p := range pending {
		if p > max {
			max = p
		}
		sum += p
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(pending))
	return float64(max) / mean
}

// MigrationPlan is one recommended thread movement.
type MigrationPlan struct {
	From, To int
	Count    int
}

// Plan produces migrations that move surplus work from overloaded
// locales toward underloaded ones, one donor-receiver pair at a time,
// until every locale is within one task of the mean.
func (lc *LoadController) Plan(pending []int) []MigrationPlan {
	n := len(pending)
	if n < 2 {
		return nil
	}
	work := append([]int(nil), pending...)
	sum := 0
	for _, p := range work {
		sum += p
	}
	mean := sum / n
	var plans []MigrationPlan
	for {
		hi, lo := 0, 0
		for i := range work {
			if work[i] > work[hi] {
				hi = i
			}
			if work[i] < work[lo] {
				lo = i
			}
		}
		if work[hi]-mean <= 1 || mean-work[lo] < 1 {
			return plans
		}
		move := (work[hi] - work[lo]) / 2
		if surplus := work[hi] - mean; move > surplus {
			move = surplus
		}
		if move < 1 {
			return plans
		}
		work[hi] -= move
		work[lo] += move
		plans = append(plans, MigrationPlan{From: hi, To: lo, Count: move})
	}
}

// DecidePolicy maps the observed imbalance to a stealing policy name
// ("none", "local", "global") — the knob the runtime config exposes.
func (lc *LoadController) DecidePolicy(imbalance float64) string {
	switch {
	case imbalance > lc.ImbalanceThreshold:
		return "global"
	case imbalance > 1.2:
		return "local"
	default:
		return "none"
	}
}

// ---------------------------------------------------------------------
// 3. Locality adaptation.

// LocalityAction is a recommended data movement.
type LocalityAction struct {
	Obj  mem.ObjID
	Kind string // "migrate" or "replicate"
	To   mem.Locale
}

// String renders the action.
func (a LocalityAction) String() string {
	return fmt.Sprintf("%s obj%d -> locale %d", a.Kind, a.Obj, a.To)
}

// LocalityManager inspects the global-space access statistics and
// recommends object migration (write-heavy objects follow their
// writers) and replication (read-mostly objects are copied to their
// readers), preserving consistency via the directory's invalidation
// protocol.
type LocalityManager struct {
	Space *mem.Space
	// MinAccesses gates decisions: objects with fewer total accesses
	// since the last decay are left alone (default 8).
	MinAccesses int64
	// ReadMostlyRatio is the reads:writes ratio above which replication
	// is preferred over migration (default 4).
	ReadMostlyRatio float64
	// DisableReplication forces migration even for read-mostly objects
	// (the migrate-only ablation of EXP-A3).
	DisableReplication bool
}

// NewLocalityManager creates a manager over the space.
func NewLocalityManager(s *mem.Space) *LocalityManager {
	return &LocalityManager{Space: s, MinAccesses: 8, ReadMostlyRatio: 4}
}

// Analyze returns the recommended actions for all objects. It does not
// apply them; Rebalance does.
func (lm *LocalityManager) Analyze() []LocalityAction {
	var actions []LocalityAction
	for _, id := range lm.Space.Objects() {
		reads, writes := lm.Space.AccessCounts(id)
		var totalR, totalW int64
		top, topCount := mem.Locale(0), int64(-1)
		for l := range reads {
			totalR += reads[l]
			totalW += writes[l]
			if c := reads[l] + writes[l]; c > topCount {
				top, topCount = mem.Locale(l), c
			}
		}
		if totalR+totalW < lm.MinAccesses {
			continue
		}
		home := lm.Space.Home(id)
		readMostly := totalW == 0 || float64(totalR)/float64(max64(totalW, 1)) >= lm.ReadMostlyRatio
		if readMostly && !lm.DisableReplication {
			// Replicate at every non-home locale carrying a substantial
			// share of the reads — a multi-reader object wants a copy
			// at each reader, not just the hottest one.
			threshold := totalR / int64(2*len(reads))
			if threshold < 1 {
				threshold = 1
			}
			for l := range reads {
				loc := mem.Locale(l)
				if loc == home || reads[l] < threshold {
					continue
				}
				if !lm.Space.HasValidReplica(id, loc) {
					actions = append(actions, LocalityAction{Obj: id, Kind: "replicate", To: loc})
				}
			}
			continue
		}
		if top == home {
			continue
		}
		actions = append(actions, LocalityAction{Obj: id, Kind: "migrate", To: top})
	}
	return actions
}

// ReHome recovers the objects homed at lost locales: each one moves to
// the locale holding a valid replica (the cheapest survivor — a free
// promotion in the directory), or to fallback when no copy survived and
// the object must be rebuilt. The returned actions (Kind "rehome") have
// already been applied; cost is the total rebuild cost charged. This is
// the locality manager's failure-path counterpart to Rebalance: the
// cluster layer calls it when a node's eviction strands part of the
// locale space.
func (lm *LocalityManager) ReHome(lost []mem.Locale, fallback mem.Locale) ([]LocalityAction, int64) {
	if len(lost) == 0 {
		return nil, 0
	}
	dead := make(map[mem.Locale]bool, len(lost))
	for _, l := range lost {
		dead[l] = true
	}
	var (
		actions []LocalityAction
		cost    int64
	)
	for _, id := range lm.Space.Objects() {
		home := lm.Space.Home(id)
		if !dead[home] {
			continue
		}
		to := fallback
		for _, r := range lm.Space.Replicas(id) {
			if !dead[r] {
				to = r
				break
			}
		}
		c, _ := lm.Space.Rehome(id, to)
		cost += c
		actions = append(actions, LocalityAction{Obj: id, Kind: "rehome", To: to})
	}
	return actions, cost
}

// Rebalance applies Analyze's recommendations, returns them plus the
// total transfer cost charged by the directory, and decays the access
// counters so the next period starts fresh.
func (lm *LocalityManager) Rebalance() ([]LocalityAction, int64) {
	actions := lm.Analyze()
	var cost int64
	for _, a := range actions {
		switch a.Kind {
		case "migrate":
			cost += lm.Space.Migrate(a.Obj, a.To)
		case "replicate":
			cost += lm.Space.Replicate(a.Obj, a.To)
		}
	}
	lm.Space.DecayCounts()
	return actions, cost
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// 4. Latency adaptation.

// LatencyController steers the latency-hiding machinery from observed
// latency EWMAs.
type LatencyController struct {
	Monitor *monitor.Monitor
	// MaxDepth bounds percolation depth (default 16).
	MaxDepth int
	// ParcelOverhead is the fixed cost (cycles) of shipping a parcel
	// and activating its handler, used by the fetch-vs-parcel rule.
	ParcelOverhead float64
}

// NewLatencyController creates a controller reading mon.
func NewLatencyController(mon *monitor.Monitor) *LatencyController {
	return &LatencyController{Monitor: mon, MaxDepth: 16, ParcelOverhead: 100}
}

// Depth recomputes the percolation depth from the stage-time and
// compute-time EWMAs (instrument names "percolate.stage" and
// "percolate.compute").
func (lc *LatencyController) Depth() int {
	stage := lc.Monitor.EWMA("percolate.stage", 0.2).Value()
	compute := lc.Monitor.EWMA("percolate.compute", 0.2).Value()
	return SuggestDepth(int64(stage), int64(compute), lc.MaxDepth)
}

// SuggestDepth returns the percolation depth that balances staging
// against computation: enough staged-ahead tasks to cover the staging
// time of the next task with the computation of the current ones, plus
// one for slack. This is the decision rule LatencyController.Depth
// applies when observed latencies drift, and the depth a percolate
// engine is configured with.
func SuggestDepth(stageCycles, computeCycles int64, maxDepth int) int {
	if maxDepth < 1 {
		maxDepth = 1
	}
	if computeCycles <= 0 {
		return maxDepth
	}
	d := int(stageCycles/computeCycles) + 1
	if d < 1 {
		d = 1
	}
	if d > maxDepth {
		d = maxDepth
	}
	return d
}

// PreferParcel decides whether a computation touching bytes of remote
// data should move to the data (parcel) rather than fetch it: the
// parcel wins when its fixed overhead is below the cost of streaming
// the data over the observed per-byte latency.
func (lc *LatencyController) PreferParcel(bytes int, perByteLatency float64) bool {
	fetchCost := float64(bytes) * perByteLatency
	return fetchCost > lc.ParcelOverhead
}

// CrossoverBytes returns the data size at which parcels start winning
// under the observed per-byte latency.
func (lc *LatencyController) CrossoverBytes(perByteLatency float64) int {
	if perByteLatency <= 0 {
		return int(^uint(0) >> 1) // never
	}
	return int(lc.ParcelOverhead/perByteLatency) + 1
}
