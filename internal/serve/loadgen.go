package serve

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/stats"
)

// LoadConfig parameterizes the synthetic open-loop load generator: an
// arrival process that submits at the configured rate regardless of how
// the server is coping — the regime where backpressure and shedding
// matter.
type LoadConfig struct {
	// Rate is the target arrival rate in jobs/second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Tenants is the tenant population to draw from; RunLoad panics on
	// an unregistered name. Handles are resolved once before the run,
	// so the generation loop submits through the zero-lookup path.
	Tenants []string
	// Skew is the Zipf exponent over Tenants: 0 is uniform, 1 is the
	// classic heavy head where a few tenants dominate.
	Skew float64
	// KeySpace is the number of distinct keys per tenant (default 1024).
	KeySpace uint64
	// TightFrac of jobs carry the Tight deadline; the rest carry Loose
	// (zero Loose means no deadline).
	TightFrac    float64
	Tight, Loose time.Duration
	// Burst, when true, groups each wakeup's arrivals by tenant and
	// admits them through Tenant.SubmitManyFunc — one shard lock per
	// (tenant, shard) per wakeup instead of per request. Rejections then
	// surface as StatusRejected results rather than submission errors;
	// the report counts them the same either way.
	Burst bool
	// Seed fixes the generator's randomness.
	Seed uint64
	// MaxSamples bounds the latency reservoir (default 1<<20).
	MaxSamples int
	// WorkingSet, when non-nil, generates each request's declared read
	// and write sets — called once per request with the chosen tenant
	// index and the generator's RNG, so open-loop load can exercise the
	// data plane (routing, staging, the locality loop) without a
	// scenario script. Nil requests declare nothing.
	WorkingSet func(tenant int, rng *stats.RNG) (reads, writes []mem.ObjID)
}

// LoadReport summarizes one generator run against a server.
type LoadReport struct {
	Offered, Rejected, Shed, Completed, Failed int64
	Elapsed                                    time.Duration
	// Throughput is completed jobs per second of generation time.
	Throughput float64
	// Latency quantiles over completed jobs (admission to completion).
	P50, P99, Max time.Duration
	// Wait quantiles over completed jobs (admission to execution start)
	// — the queueing component of the latency above, the signal the
	// overload controller defends.
	WaitP50, WaitP99 time.Duration
}

// collector accumulates per-request outcomes for a load run. It is the
// shared back half of RunLoad and PlayScenario: outcome counters, a
// bounded latency reservoir, and outstanding-job tracking so a run can
// block until every offered request has resolved.
type collector struct {
	outstanding                       atomic.Int64
	completed, rejected, shed, failed atomic.Int64
	samples                           []float64 // Result.Total of completed jobs
	waits                             []float64 // Result.Wait of the same jobs
	nsamples                          atomic.Int64
}

func newCollector(maxSamples int) *collector {
	if maxSamples <= 0 {
		maxSamples = 1 << 20
	}
	return &collector{
		samples: make([]float64, maxSamples),
		waits:   make([]float64, maxSamples),
	}
}

// expect registers n submissions whose outcomes will arrive via done.
func (c *collector) expect(n int) { c.outstanding.Add(int64(n)) }

// done folds one outcome in; every expected request must reach it
// exactly once (rejected submissions included).
func (c *collector) done(r Result) {
	switch r.Status {
	case StatusOK:
		c.completed.Add(1)
		if i := c.nsamples.Add(1) - 1; int(i) < len(c.samples) {
			c.samples[i] = float64(r.Total)
			c.waits[i] = float64(r.Wait)
		}
	case StatusRejected:
		c.rejected.Add(1)
	case StatusShed:
		c.shed.Add(1)
	default:
		c.failed.Add(1)
	}
	c.outstanding.Add(-1)
}

// doneIdx adapts done to the SubmitManyFunc callback shape.
func (c *collector) doneIdx(_ int, r Result) { c.done(r) }

// drain blocks until every expected outcome has arrived.
func (c *collector) drain() {
	for c.outstanding.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// report assembles the final LoadReport.
func (c *collector) report(offered int64, elapsed time.Duration) LoadReport {
	rep := LoadReport{
		Offered:   offered,
		Elapsed:   elapsed,
		Rejected:  c.rejected.Load(),
		Completed: c.completed.Load(),
		Shed:      c.shed.Load(),
		Failed:    c.failed.Load(),
	}
	rep.Throughput = float64(rep.Completed) / elapsed.Seconds()
	n := c.nsamples.Load()
	if int(n) > len(c.samples) {
		n = int64(len(c.samples))
	}
	lats := c.samples[:n]
	sort.Float64s(lats)
	if len(lats) > 0 {
		rep.P50 = time.Duration(stats.Quantile(lats, 0.50))
		rep.P99 = time.Duration(stats.Quantile(lats, 0.99))
		rep.Max = time.Duration(lats[len(lats)-1])
	}
	waits := c.waits[:n]
	sort.Float64s(waits)
	if len(waits) > 0 {
		rep.WaitP50 = time.Duration(stats.Quantile(waits, 0.50))
		rep.WaitP99 = time.Duration(stats.Quantile(waits, 0.99))
	}
	return rep
}

// ShedRate is the fraction of offered jobs dropped by backpressure or
// deadline shedding.
func (r LoadReport) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Rejected+r.Shed) / float64(r.Offered)
}

// RunLoad drives the server with an open-loop arrival stream and blocks
// until every admitted job has resolved. The arrival process is wall-
// clock-driven, so two runs never offer the identical sequence; for a
// reproducible script use a Scenario and PlayScenario instead.
func RunLoad(s *Server, cfg LoadConfig) LoadReport {
	if len(cfg.Tenants) == 0 {
		return LoadReport{}
	}
	if cfg.KeySpace == 0 {
		cfg.KeySpace = 1024
	}
	handles := make([]*Tenant, len(cfg.Tenants))
	for i, name := range cfg.Tenants {
		t, ok := s.Tenant(name)
		if !ok {
			// A misconfigured population is programmer error in a load
			// harness: fail loudly rather than return a zero report that
			// reads like "the server did nothing wrong".
			panic("serve: RunLoad: unknown tenant " + name)
		}
		handles[i] = t
	}
	rng := stats.NewRNG(cfg.Seed | 1)
	pickTenant := zipfPicker(len(cfg.Tenants), cfg.Skew)
	col := newCollector(cfg.MaxSamples)

	// Burst mode accumulates one wakeup's arrivals per tenant and admits
	// each group as a unit; otherwise the groups stay empty.
	pending := make([][]Request, len(handles))

	// Open loop: each wakeup offers the arrivals the target rate owes
	// since the last one, regardless of how the server is coping.
	var offered int64
	start := time.Now()
	last, owed := start, 0.0
	for now := start; now.Sub(start) < cfg.Duration; now = time.Now() {
		owed += cfg.Rate * now.Sub(last).Seconds()
		last = now
		for ; owed >= 1; owed-- {
			offered++
			ti := pickTenant(rng)
			key := rng.Uint64() % cfg.KeySpace
			var deadline time.Time
			if cfg.TightFrac > 0 && rng.Float64() < cfg.TightFrac {
				deadline = now.Add(cfg.Tight)
			} else if cfg.Loose > 0 {
				deadline = now.Add(cfg.Loose)
			}
			req := Request{Key: key, Deadline: deadline}
			if cfg.WorkingSet != nil {
				req.WorkingSet, req.WriteSet = cfg.WorkingSet(ti, rng)
			}
			if cfg.Burst {
				pending[ti] = append(pending[ti], req)
				continue
			}
			col.expect(1)
			if err := handles[ti].SubmitFunc(req, col.done); err != nil {
				col.done(Result{Status: StatusRejected, Err: err})
			}
		}
		for ti, reqs := range pending {
			if len(reqs) == 0 {
				continue
			}
			col.expect(len(reqs))
			handles[ti].SubmitManyFunc(reqs, col.doneIdx)
			pending[ti] = pending[ti][:0]
		}
		time.Sleep(200 * time.Microsecond)
	}
	col.drain()
	return col.report(offered, time.Since(start))
}

// zipfPicker returns a sampler over [0, n) with P(i) proportional to
// 1/(i+1)^skew (uniform at skew 0).
func zipfPicker(n int, skew float64) func(*stats.RNG) int {
	if n <= 1 {
		return func(*stats.RNG) int { return 0 }
	}
	if skew <= 0 {
		return func(r *stats.RNG) int { return r.Intn(n) }
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	return func(r *stats.RNG) int {
		x := r.Float64() * total
		i := sort.SearchFloat64s(cum, x)
		if i >= n {
			i = n - 1
		}
		return i
	}
}
