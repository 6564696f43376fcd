// Package exp implements the experiment harness: one function per
// experiment (cmd/htvmbench -list names them; ROADMAP.md's item "a
// paper-to-code ledger, then a prune" plans the ledger that will index
// them), each regenerating the corresponding figure/claim of the paper
// as a plain-text table.
// Experiments on the c64 simulator or the analytic evaluators are
// bit-deterministic; experiments on the native runtime measure wall
// clock and are therefore machine-dependent but shape-stable.
//
// cmd/htvmbench prints these tables; the root bench_test.go wraps each
// experiment in a testing.B benchmark and reports its headline metric.
package exp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/spinwork"
	"repro/internal/stats"
)

// Result couples a rendered table with headline metrics the benchmark
// harness reports via b.ReportMetric.
type Result struct {
	ID      string
	Table   *stats.Table
	Metrics map[string]float64
}

// Runner is one experiment entry point. Scale >= 1 grows the workload.
type Runner func(scale int) *Result

// registry holds all experiments keyed by ID.
var registry = map[string]Runner{}

// register adds an experiment at init time.
func register(id string, r Runner) {
	registry[id] = r
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Get returns the runner for an experiment id.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// Run executes one experiment at the given scale.
func Run(id string, scale int) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	if scale < 1 {
		scale = 1
	}
	return r(scale), nil
}

// newResult builds a result shell.
func newResult(id, title string, headers ...string) *Result {
	return &Result{
		ID:      id,
		Table:   stats.NewTable(title, headers...),
		Metrics: map[string]float64{},
	}
}

// timeIt measures fn's wall-clock duration in milliseconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Microseconds()) / 1000.0
}

// spin burns roughly units of deterministic CPU work; the shared
// calibration (internal/spinwork) keeps one unit near a
// microsecond-scale grain without depending on wall time, and keeps
// the harness commensurate with the serve layer's cold-start charge.
func spin(units int64) int64 { return spinwork.Spin(units) }

// spinWork is spin with a global sink so the compiler cannot elide it.
func spinWork(units int64) { spinwork.Work(units) }
