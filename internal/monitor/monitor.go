// Package monitor implements the runtime performance-monitoring
// methodology of Section 4.2: cheap always-on counters, exponentially
// weighted latency estimators, histograms of access patterns, and
// per-loop iteration profiles. Its snapshots are the "dynamic facts"
// that drive the dynamic compiler and the adaptivity controllers
// (internal/adapt), closing the feedback loop of Fig. 1.
package monitor

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Monitor is a registry of named instruments. All instruments are safe
// for concurrent use; lookup is amortized by caching the returned
// instrument at the call site.
type Monitor struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	ewmas    map[string]*EWMA
	hists    map[string]*Histogram
}

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{
		counters: make(map[string]*Counter),
		ewmas:    make(map[string]*EWMA),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Monitor) Counter(name string) *Counter {
	m.mu.RLock()
	c, ok := m.counters[name]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok = m.counters[name]; ok {
		return c
	}
	c = &Counter{}
	m.counters[name] = c
	return c
}

// EWMA returns the named estimator, creating it with the given alpha on
// first use (later alphas are ignored).
func (m *Monitor) EWMA(name string, alpha float64) *EWMA {
	m.mu.RLock()
	e, ok := m.ewmas[name]
	m.mu.RUnlock()
	if ok {
		return e
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok = m.ewmas[name]; ok {
		return e
	}
	e = NewEWMA(alpha)
	m.ewmas[name] = e
	return e
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use.
func (m *Monitor) Histogram(name string, bounds []float64) *Histogram {
	m.mu.RLock()
	h, ok := m.hists[name]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok = m.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	m.hists[name] = h
	return h
}

// Snapshot captures current values of every instrument.
func (m *Monitor) Snapshot() Report {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r := Report{
		Counters: make(map[string]int64, len(m.counters)),
		EWMAs:    make(map[string]float64, len(m.ewmas)),
		Hists:    make(map[string]HistView, len(m.hists)),
	}
	for n, c := range m.counters {
		r.Counters[n] = c.Value()
	}
	for n, e := range m.ewmas {
		r.EWMAs[n] = e.Value()
	}
	for n, h := range m.hists {
		r.Hists[n] = h.View()
	}
	return r
}

// Report is a point-in-time view of the monitor, consumed by the
// dynamic compiler, the adaptivity controllers, and the serve layer's
// metrics export.
type Report struct {
	Counters map[string]int64
	EWMAs    map[string]float64
	Hists    map[string]HistView
}

// Names returns the counter names in sorted order (for stable output).
func (r Report) Names() []string {
	names := make([]string, 0, len(r.Counters))
	for n := range r.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// EWMA is an exponentially weighted moving average updated lock-free.
// The paper's latency-adaptation controller uses EWMAs of observed
// memory latency to steer percolation depth and scheduling policy.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64 // float64 bits of the average; unset before the first observation
}

// unset marks an EWMA with no observation yet: a NaN that no float
// arithmetic produces, so a first sample of 0 still seeds the average.
const unset = ^uint64(0)

// NewEWMA creates an estimator with smoothing factor alpha in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	e := &EWMA{alpha: alpha}
	e.bits.Store(unset)
	return e
}

// Observe folds a new sample into the average: one compare-and-swap
// when uncontended.
func (e *EWMA) Observe(x float64) {
	for {
		old := e.bits.Load()
		next := x
		if old != unset {
			cur := math.Float64frombits(old)
			next = cur + e.alpha*(x-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 {
	b := e.bits.Load()
	if b == unset {
		return 0
	}
	return math.Float64frombits(b)
}

// Histogram counts observations into fixed buckets; bucket i counts
// samples <= bounds[i], with one overflow bucket at the end. It backs
// the access-pattern summaries fed to the knowledge database.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bounds.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe adds a sample.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
}

// Bounds returns a copy of the ascending bucket bounds.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// HistView is a point-in-time copy of one histogram: Counts[i] counts
// samples <= Bounds[i], with the final entry the overflow bucket. It is
// the JSON-friendly shape exported by metrics endpoints.
type HistView struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Total sums the view's bucket counts.
func (v HistView) Total() int64 {
	var t int64
	for _, c := range v.Counts {
		t += c
	}
	return t
}

// View captures the histogram's current state.
func (h *Histogram) View() HistView {
	return HistView{Bounds: h.Bounds(), Counts: h.Counts()}
}

// Counts returns a copy of the bucket counts (len(bounds)+1 entries).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Total returns the total number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// QuantileUpperBound returns an upper bound for the q-quantile using the
// bucket bounds (+Inf for the overflow bucket).
func (h *Histogram) QuantileUpperBound(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return math.NaN()
	}
	want := int64(math.Ceil(q * float64(total)))
	if want < 1 {
		want = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= want {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}
