package serve

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/litlx"
)

// The admission benchmarks measure the handle path (identity resolved
// once at registration: no map lookup, no string hashing per call):
// single submits, shard-grouped bursts, and flows. Handlers are no-ops
// and the queues are deep, so the measured cost is admission itself.

func newBenchServer(b *testing.B) (*Server, *Tenant) {
	b.Helper()
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	s := New(sys, Config{Shards: 8, QueueDepth: 1 << 16, Batch: 64})
	b.Cleanup(s.Close)
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "bench",
		// The handler returns nil, not req.Key: boxing a uint64 into the
		// Result's any allocates, and allocs/op charges every goroutine's
		// allocations to the benchmark — the suite measures the serving
		// path, not user-payload boxing.
		Handler: func(_ *Ctx, _ Request) (any, error) { return nil, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm every pool on the path — jobs, cells, detached SGTs, batch
	// buffers — to steady state before any timed loop: a short
	// -benchtime run (CI gates at 100x) would otherwise measure cold
	// pool misses instead of the steady-state path.
	const warmN = 4096
	var wg sync.WaitGroup
	wg.Add(warmN)
	done := func(Result) { wg.Done() }
	for i := 0; i < warmN; i++ {
		for tn.SubmitFunc(Request{Key: uint64(i)}, done) == ErrOverload {
		}
	}
	wg.Wait()
	return s, tn
}

// BenchmarkResolveHandle is the routing floor: the handle has its
// identity bound at registration, so a submission goes straight to
// shard routing. The end-to-end Submit benchmarks below add queueing
// and batch execution, which dominate.

func BenchmarkResolveHandle(b *testing.B) {
	s, tn := newBenchServer(b)
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += shardIndex(tn.hash, uint64(i), len(s.shards))
	}
	_ = sink
}

func BenchmarkSubmitHandle(b *testing.B) {
	_, tn := newBenchServer(b)
	done := func(Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tn.SubmitFunc(Request{Key: uint64(i)}, done) == ErrOverload {
		}
	}
}

// BenchmarkSubmitWait is the solo-small shape: a closed loop of
// Tenant.Submit and Ticket.Wait, one request in flight, so every Wait
// parks until the batch SGT resolves the ticket. The ticket is the one
// allocation: its cell parks the waiter on a semaphore inside the
// ticket, not on a channel of its own.
func BenchmarkSubmitWait(b *testing.B) {
	_, tn := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := tn.Submit(Request{Key: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		tk.Wait()
	}
}

// BenchmarkSubmitHandleSketch is BenchmarkSubmitHandle with continuous
// compilation enabled: every admission additionally folds its key into
// the tenant's count-min/top-K sketch and every dispatch probes the
// fast-path slot table. The controller itself never fires mid-run
// (Every is an hour — allocs/op charges every goroutine, so a live
// controller would poison the zero-alloc gate); what this measures is
// the steady per-request tax of the observation plane, which the CI
// ratio gate bounds against the plain path.
func BenchmarkSubmitHandleSketch(b *testing.B) {
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	s := New(sys, Config{Shards: 8, QueueDepth: 1 << 16, Batch: 64,
		Compile: CompileConfig{Enabled: true, Every: time.Hour}})
	b.Cleanup(func() { s.Close() })
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "bench",
		Handler: func(_ *Ctx, _ Request) (any, error) { return nil, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	const warmN = 4096
	var wg sync.WaitGroup
	wg.Add(warmN)
	wdone := func(Result) { wg.Done() }
	for i := 0; i < warmN; i++ {
		for tn.SubmitFunc(Request{Key: uint64(i)}, wdone) == ErrOverload {
		}
	}
	wg.Wait()
	done := func(Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tn.SubmitFunc(Request{Key: uint64(i)}, done) == ErrOverload {
		}
	}
}

// BenchmarkSubmitFlow measures the dataflow-pipeline admission path:
// one two-stage scalar flow per iteration, flow state and stage hop
// included — the per-flow cost SubmitFlow adds over plain Submit.
func BenchmarkSubmitFlow(b *testing.B) {
	_, tn := newBenchServer(b)
	pl, err := tn.NewPipeline("bench-flow",
		Stage{Name: "a", Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "b", Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
	)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the flow-state pool and the stage jobs' pools (newBenchServer
	// only warms the plain-submit path).
	var wg sync.WaitGroup
	wg.Add(256)
	wdone := func(Result) { wg.Done() }
	for i := 0; i < 256; i++ {
		for {
			if err := tn.SubmitFlowFunc(pl, Request{Key: uint64(i)}, wdone); err != ErrOverload {
				break
			}
		}
	}
	wg.Wait()
	done := func(Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			if err := tn.SubmitFlowFunc(pl, Request{Key: uint64(i)}, done); err != ErrOverload {
				break
			}
		}
	}
}

// BenchmarkSubmitFlowFan measures a fan-out flow: parse, an unrouted
// Map over eight elements, aggregate — the flow-fan shape, whose Map
// runs as one inline-fan job. parse hands out one shared input slice, so
// the allocations counted are the serving path's own (the join's fresh
// result slice and its boxing).
func BenchmarkSubmitFlowFan(b *testing.B) {
	_, tn := newBenchServer(b)
	var in any = make([]any, 8)
	pl, err := tn.NewPipeline("bench-fan",
		Stage{Name: "parse", Handler: func(*Ctx, Request) (any, error) { return in, nil }},
		Stage{Name: "enrich", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "aggregate", Handler: func(*Ctx, Request) (any, error) { return nil, nil }},
	)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(256)
	wdone := func(Result) { wg.Done() }
	for i := 0; i < 256; i++ {
		for tn.SubmitFlowFunc(pl, Request{Key: uint64(i)}, wdone) == ErrOverload {
		}
	}
	wg.Wait()
	done := func(Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tn.SubmitFlowFunc(pl, Request{Key: uint64(i)}, done) == ErrOverload {
		}
	}
}

func BenchmarkSubmitManyBurst(b *testing.B) {
	_, tn := newBenchServer(b)
	const burst = 64
	reqs := make([]Request, burst)
	// Warm the burst-scatter scratch pool and deepen the job pools to
	// burst-rate in-flight levels.
	var wg sync.WaitGroup
	wg.Add(burst * 16)
	wdone := func(int, Result) { wg.Done() }
	for k := 0; k < 16; k++ {
		for j := range reqs {
			reqs[j].Key = uint64(k*burst + j)
		}
		tn.SubmitManyFunc(reqs, wdone)
	}
	wg.Wait()
	// Closed loop per burst: waiting out each burst keeps the in-flight
	// population (and so the pooled-record population) constant, which
	// makes allocs/op independent of -benchtime — the property the CI
	// gate relies on. ns/op is a full submit→drain→execute→complete
	// cycle for 64 requests.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j].Key = uint64(i*burst + j)
		}
		wg.Add(burst)
		tn.SubmitManyFunc(reqs, wdone)
		wg.Wait()
	}
}

// BenchmarkSubmitParallel is the closed-loop throughput benchmark: one
// submitting goroutine per GOMAXPROCS, all hammering the MPSC producer
// side concurrently — the contention profile RunParallel generates is
// the one the lock-free tail CAS exists for. ns/op here is the whole
// pipeline's per-request cost under parallel load; allocs/op must stay
// at zero like the serial path.
func BenchmarkSubmitParallel(b *testing.B) {
	_, tn := newBenchServer(b)
	done := func(Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			for tn.SubmitFunc(Request{Key: i}, done) == ErrOverload {
			}
		}
	})
}

// BenchmarkSubmitOpenLoopP99 measures tail latency the way a serving
// paper reports it: submit-to-completion wall time per request under a
// saturating open loop (the submitter never waits for one request
// before issuing the next, so the queue runs deep), with the p50/p99
// of the distribution attached as custom metrics. Allocation gating applies here too — the measurement
// machinery itself is kept off the heap (one pre-sized sample slice,
// one completion callback per run).
func BenchmarkSubmitOpenLoopP99(b *testing.B) {
	_, tn := newBenchServer(b)
	samples := make([]time.Duration, b.N)
	starts := make([]time.Time, b.N)
	dones := make([]func(Result), b.N)
	var wg sync.WaitGroup
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		idx := i
		dones[idx] = func(Result) {
			samples[idx] = time.Since(starts[idx])
			wg.Done()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		starts[i] = time.Now()
		for tn.SubmitFunc(Request{Key: uint64(i)}, dones[i]) == ErrOverload {
		}
	}
	wg.Wait()
	b.StopTimer()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if n := len(samples); n > 0 {
		b.ReportMetric(float64(samples[n/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(samples[n*99/100].Nanoseconds()), "p99-ns")
	}
}

// The ring micro-benchmarks isolate the queue itself from routing,
// execution, and completion: the produce/consume cycle cost with one
// producer (the uncontended CAS floor) and the drain cost per job at
// batch width — a batch SGT's per-drain bill.

func BenchmarkRingPushPop(b *testing.B) {
	var r jobRing
	r.init(1 << 10)
	one := []*Job{testJob(stealTenant(1, 1, true), Request{})}
	buf := make([]*Job, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.push(one) // a single submit is a group of one
		r.consMu.Lock()
		buf, _ = r.popMany(1, buf[:0])
		r.consMu.Unlock()
	}
	_ = buf
}

func BenchmarkRingBatchDrain(b *testing.B) {
	const batch = 64
	var r jobRing
	r.init(1 << 10)
	jobs := make([]*Job, batch)
	tn := stealTenant(1, 1, true)
	for i := range jobs {
		jobs[i] = testJob(tn, Request{})
	}
	buf := make([]*Job, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		r.push(jobs)
		r.consMu.Lock()
		buf, _ = r.popMany(batch, buf[:0])
		r.consMu.Unlock()
	}
	_ = buf
}
