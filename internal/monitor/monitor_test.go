package monitor

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterConcurrent(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("x")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if v := m.Counter("x").Value(); v != 16000 {
		t.Errorf("counter = %d, want 16000", v)
	}
}

func TestCounterIdentity(t *testing.T) {
	m := New()
	if m.Counter("a") != m.Counter("a") {
		t.Error("same name should return same counter")
	}
	if m.Counter("a") == m.Counter("b") {
		t.Error("different names should return different counters")
	}
}

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	if v := e.Value(); v != 10 {
		t.Errorf("first observation value = %v, want 10", v)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if v := e.Value(); math.Abs(v-42) > 1e-6 {
		t.Errorf("EWMA = %v, want 42", v)
	}
}

// A first sample of exactly 0 seeds the average like any other: the
// next sample x moves it to alpha*x, not to x.
func TestEWMAZeroFirstSampleSeeds(t *testing.T) {
	e := NewEWMA(0.25)
	if v := e.Value(); v != 0 {
		t.Fatalf("value before any observation = %v, want 0", v)
	}
	e.Observe(0)
	if v := e.Value(); v != 0 {
		t.Fatalf("value after a first 0 = %v, want 0", v)
	}
	e.Observe(8)
	if v := e.Value(); v != 2 {
		t.Errorf("value after 0 then 8 = %v, want alpha*8 = 2", v)
	}
}

func TestEWMATracksShift(t *testing.T) {
	e := NewEWMA(0.5)
	for i := 0; i < 20; i++ {
		e.Observe(10)
	}
	for i := 0; i < 20; i++ {
		e.Observe(100)
	}
	if v := e.Value(); math.Abs(v-100) > 1 {
		t.Errorf("EWMA after shift = %v, want near 100", v)
	}
}

func TestEWMABadAlphaDefaulted(t *testing.T) {
	e := NewEWMA(-1)
	e.Observe(5)
	if e.Value() != 5 {
		t.Error("estimator with defaulted alpha broken")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	h.Observe(5)
	h.Observe(10)
	h.Observe(50)
	h.Observe(1000)
	c := h.Counts()
	if c[0] != 2 || c[1] != 1 || c[2] != 1 {
		t.Errorf("counts = %v, want [2 1 1]", c)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(1.5) // bucket <=2
	}
	for i := 0; i < 10; i++ {
		h.Observe(100) // overflow
	}
	if q := h.QuantileUpperBound(0.5); q != 2 {
		t.Errorf("p50 bound = %v, want 2", q)
	}
	if q := h.QuantileUpperBound(0.99); !math.IsInf(q, 1) {
		t.Errorf("p99 bound = %v, want +Inf", q)
	}
	empty := NewHistogram([]float64{1})
	if !math.IsNaN(empty.QuantileUpperBound(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewHistogram([]float64{100, 1, 10})
	h.Observe(5)
	c := h.Counts()
	if c[1] != 1 { // 1 < 5 <= 10
		t.Errorf("counts = %v, want sample in bucket 1", c)
	}
}

func TestSnapshot(t *testing.T) {
	m := New()
	m.Counter("steals").Add(7)
	m.EWMA("lat", 0.2).Observe(33)
	r := m.Snapshot()
	if r.Counters["steals"] != 7 {
		t.Errorf("snapshot counter = %d", r.Counters["steals"])
	}
	if r.EWMAs["lat"] != 33 {
		t.Errorf("snapshot ewma = %v", r.EWMAs["lat"])
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "steals" {
		t.Errorf("Names = %v", names)
	}
}

func TestLoopProfile(t *testing.T) {
	var p LoopProfile
	p.RecordChunk(10, 100) // 10 per iter
	p.RecordChunk(10, 100)
	if m := p.MeanIterCost(); m != 10 {
		t.Errorf("MeanIterCost = %v, want 10", m)
	}
	if cv := p.IterCostCV(); cv != 0 {
		t.Errorf("CV = %v, want 0 for uniform chunks", cv)
	}
	p.RecordChunk(10, 1000) // 100 per iter: now imbalanced
	if cv := p.IterCostCV(); cv <= 0 {
		t.Errorf("CV = %v, want > 0 after imbalance", cv)
	}
	if p.Iters() != 30 || p.Chunks() != 3 {
		t.Errorf("Iters/Chunks = %d/%d", p.Iters(), p.Chunks())
	}
	p.Reset()
	if p.Chunks() != 0 || p.MeanIterCost() != 0 {
		t.Error("Reset did not clear profile")
	}
}

func TestLoopProfileIgnoresEmptyChunks(t *testing.T) {
	var p LoopProfile
	p.RecordChunk(0, 50)
	if p.Chunks() != 0 {
		t.Error("zero-size chunk should be ignored")
	}
}

func TestEWMAConcurrent(t *testing.T) {
	e := NewEWMA(0.1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				e.Observe(50)
			}
		}()
	}
	wg.Wait()
	if v := e.Value(); math.Abs(v-50) > 1e-6 {
		t.Errorf("concurrent EWMA = %v, want 50", v)
	}
}

func TestHistogramPropertyTotalMatches(t *testing.T) {
	f := func(samples []float64) bool {
		h := NewHistogram([]float64{0, 1, 10})
		for _, s := range samples {
			h.Observe(s)
		}
		return h.Total() == int64(len(samples))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramViewAndBounds(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	v := h.View()
	if len(v.Bounds) != 2 || len(v.Counts) != 3 {
		t.Fatalf("view shape = %d bounds, %d counts", len(v.Bounds), len(v.Counts))
	}
	if v.Counts[0] != 1 || v.Counts[1] != 1 || v.Counts[2] != 1 {
		t.Errorf("view counts = %v", v.Counts)
	}
	if v.Total() != 3 {
		t.Errorf("view total = %d, want 3", v.Total())
	}
	// The view is a copy: later observations must not leak into it.
	h.Observe(5)
	if v.Counts[0] != 1 {
		t.Error("HistView aliases live histogram state")
	}
	b := h.Bounds()
	b[0] = -1
	if h.Bounds()[0] != 10 {
		t.Error("Bounds returned aliased storage")
	}
}

func TestSnapshotIncludesHistograms(t *testing.T) {
	m := New()
	m.Histogram("lat", []float64{1, 2}).Observe(1.5)
	var wg sync.WaitGroup
	// Observers racing a snapshot: the -race guarantee metrics export
	// depends on.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				m.Histogram("lat", []float64{1, 2}).Observe(float64(j % 3))
			}
		}()
	}
	r := m.Snapshot()
	wg.Wait()
	v, ok := r.Hists["lat"]
	if !ok {
		t.Fatal("snapshot missing histogram")
	}
	if v.Total() < 1 {
		t.Errorf("histogram view total = %d, want >= 1", v.Total())
	}
}
