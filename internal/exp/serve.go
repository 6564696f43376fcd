package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/litlx"
	"repro/internal/serve"
)

func init() {
	register("V1", ExpServeLoadtest)
}

// ExpServeLoadtest is the serve-loadtest experiment: the parcel-driven
// job service layer (internal/serve) under a seeded open-loop script.
// It reports three regimes — nominal load, overload (where bounded
// queues must shed rather than collapse), and first-request latency
// cold versus warm (percolation warm-up, Section 3.2 applied to
// serving). Wall clock, so machine-dependent but shape-stable: warm
// first requests beat cold ones by the modeled code-transfer cost, and
// overload sheds instead of queueing unboundedly.
func ExpServeLoadtest(scale int) *Result {
	res := newResult("V1", "EXP-V1: serve-loadtest — sharded admission, batching, shedding, warm-up",
		"scenario", "offered", "done", "shed_pct", "p50_us", "p99_us", "tput_s")

	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 8})
	if err != nil {
		panic(err)
	}
	defer sys.Close()
	srv := serve.New(sys, serve.Config{Shards: 8, QueueDepth: 256, Batch: 32})
	defer srv.Close()

	// A fleet of tenants with ~0.5ms handlers (spin is deterministic
	// CPU work, so capacity is worker-bound and overload is reachable
	// even on a single-core machine).
	const handlerUnits = 1000
	tenants := make([]*serve.Tenant, 16)
	for i := range tenants {
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name: fmt.Sprintf("tenant%02d", i),
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				spinWork(handlerUnits)
				return req.Key, nil
			},
		})
		must(err)
		tenants[i] = tn
	}

	// First-request probes: same handler image size, cold tenants
	// versus tenants percolated at registration. Three pairs, keeping
	// the minimum per class: a first request can only be slowed by
	// scheduling noise, never sped up, so the minimum is the honest
	// estimate on a loaded machine.
	const img = 2 << 20
	probe := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Key, nil }
	firstReq := func(t *serve.Tenant) float64 {
		tk, err := t.Submit(serve.Request{Key: 1})
		if err != nil {
			panic(err)
		}
		r := tk.Wait()
		if r.Status != serve.StatusOK {
			panic("serve-loadtest: probe failed: " + r.Status.String())
		}
		return float64(r.Total) / float64(time.Microsecond)
	}
	coldUS, warmUS := 0.0, 0.0
	var coldProbe *serve.Tenant
	for i := 0; i < 3; i++ {
		cold, err := srv.RegisterTenant(serve.TenantConfig{
			Name: fmt.Sprintf("probe-cold%d", i), Handler: probe, CodeSize: img})
		must(err)
		warm, err := srv.RegisterTenant(serve.TenantConfig{
			Name: fmt.Sprintf("probe-warm%d", i), Handler: probe, CodeSize: img, Warm: true})
		must(err)
		if i == 0 {
			coldProbe = cold
		}
		if w := firstReq(warm); i == 0 || w < warmUS {
			warmUS = w
		}
		if c := firstReq(cold); i == 0 || c < coldUS {
			coldUS = c
		}
	}
	// The native price of the modeled transfer, measured with the same
	// spin calibration and cycle conversion the server charges cold
	// starts with.
	modeledMS := timeIt(func() { spinWork(serve.TransferSpinUnits(coldProbe.TransferCycles())) })
	res.Table.AddRow("first-req/cold", 1, 1, 0.0, coldUS, coldUS, 0.0)
	res.Table.AddRow("first-req/warm", 1, 1, 0.0, warmUS, warmUS, 0.0)

	// Load sweep: nominal (under capacity) and open-loop overload. The
	// overload rate scales with the machine's parallelism: capacity is
	// roughly cores/handler-time (~2000 jobs/s per core at 0.5ms), so
	// 8000/s per core keeps the offered load ~4x over capacity whether
	// this runs on one core or sixteen. Both legs play a seeded open
	// script and admit each arrival on its own through PlayScenario's
	// default SubmitFunc: 100 ticks of 2.5ms, half the jobs on a 4-tick
	// (10ms) deadline and the rest on 40 ticks (100ms).
	cores := runtime.GOMAXPROCS(0)
	if cores > 16 {
		cores = 16 // the system only has 16 workers
	}
	overloadRate := 8000 * float64(cores) * float64(scale)
	const tick = 2500 * time.Microsecond
	for i, rate := range []float64{400, overloadRate} {
		seed := uint64(90 + i)
		sc := serve.OpenLoopScenario(seed, len(tenants), 100, int(rate*tick.Seconds()), 1.0, 4096)
		rep := serve.PlayScenario(srv, sc.WithDeadline(seed, 0.5, 4, 40), serve.PlayConfig{
			Tenants: tenants, Tick: tick,
			MaxSamples: 1 << 15, // ample for 250ms runs; keeps GC pressure off later experiments
		})
		res.Table.AddRow(
			fmt.Sprintf("open-loop@%.0f/s", rate),
			rep.Offered, rep.Completed, 100*rep.ShedRate(),
			float64(rep.P50)/float64(time.Microsecond),
			float64(rep.P99)/float64(time.Microsecond),
			rep.Throughput,
		)
		if i == 0 {
			res.Metrics["nominal_tput_s"] = rep.Throughput
			res.Metrics["nominal_p99_us"] = float64(rep.P99) / float64(time.Microsecond)
			res.Metrics["nominal_shed_rate"] = rep.ShedRate()
		} else {
			res.Metrics["overload_tput_s"] = rep.Throughput
			res.Metrics["overload_shed_rate"] = rep.ShedRate()
		}
	}
	res.Metrics["cold_first_us"] = coldUS
	res.Metrics["warm_first_us"] = warmUS
	res.Metrics["modeled_xfer_ms"] = modeledMS
	return res
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
