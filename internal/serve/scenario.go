package serve

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Arrival is one scripted request of a Scenario. Tick is the virtual
// time it is offered; Tenant indexes the player's tenant slice;
// DeadlineTicks, when non-zero, is the deadline expressed in virtual
// ticks after the offer — the script carries no wall-clock quantities
// at all. WorkingSet and WriteSet declare data objects by index into
// the tenant's registered object list (Tenant.Objects), resolved to
// mem.ObjIDs at play time so one script drives any tenant population.
type Arrival struct {
	Tick          int
	Tenant        int
	Key           uint64
	Priority      int
	DeadlineTicks int
	WorkingSet    []int
	WriteSet      []int
}

// Scenario is a deterministic load script: the full arrival schedule is
// materialized up front from a seed, so every playback of the same
// scenario offers the identical request sequence — keys, tenants,
// priorities, deadlines and all. That is what lets tests, the
// experiments, and htserved compare two server configurations on the
// same traffic. The clock is injected at play time: PlayConfig.Tick
// maps virtual ticks to real durations, so one script plays at any
// speed.
type Scenario struct {
	Name string
	// Ticks is the script's length in virtual ticks.
	Ticks int
	// Arrivals is the schedule, ordered by Tick.
	Arrivals []Arrival
}

// Offered returns the total number of scripted arrivals.
func (sc Scenario) Offered() int { return len(sc.Arrivals) }

// WithDeadline returns a copy of the scenario in which each arrival
// carries a deadline in virtual ticks after its offer: tight with
// probability tightFrac, loose otherwise (0 is no deadline). The draws
// come from a stream split off seed, so a script and its deadline mix
// can share one seed without their draws lining up.
func (sc Scenario) WithDeadline(seed uint64, tightFrac float64, tight, loose int) Scenario {
	rng := stats.NewRNG(seed | 1).Split(1)
	out := sc
	out.Arrivals = append([]Arrival(nil), sc.Arrivals...)
	for i := range out.Arrivals {
		out.Arrivals[i].DeadlineTicks = loose
		if rng.Float64() < tightFrac {
			out.Arrivals[i].DeadlineTicks = tight
		}
	}
	return out
}

// OpenLoopScenario scripts steady open-loop traffic: perTick arrivals
// every tick, offered regardless of how the server is coping — the
// regime where backpressure and shedding matter. Tenants are drawn from
// a Zipf law of exponent skew (0 is uniform, 1 the classic heavy head
// where a few tenants dominate); keys are uniform below keys.
func OpenLoopScenario(seed uint64, tenants, ticks, perTick int, skew float64, keys uint64) Scenario {
	if keys == 0 {
		keys = 1024
	}
	rng := stats.NewRNG(seed | 1)
	pick := zipfPicker(tenants, skew)
	sc := Scenario{Name: "open", Ticks: ticks, Arrivals: make([]Arrival, 0, ticks*perTick)}
	for t := 0; t < ticks; t++ {
		for i := 0; i < perTick; i++ {
			sc.Arrivals = append(sc.Arrivals, Arrival{Tick: t, Tenant: pick(rng), Key: rng.Uint64() % keys})
		}
	}
	return sc
}

// BurstyScenario scripts a steady baseline of basePerTick arrivals per
// tick with a burst of burstSize extra arrivals every burstEvery ticks —
// the open-and-slam pattern admission batching is built for. Tenants
// and keys are drawn uniformly from the seeded generator.
func BurstyScenario(seed uint64, tenants, ticks, basePerTick, burstEvery, burstSize int, keys uint64) Scenario {
	rng := stats.NewRNG(seed | 1)
	sc := Scenario{Name: "bursty", Ticks: ticks}
	for t := 0; t < ticks; t++ {
		n := basePerTick
		if burstEvery > 0 && t%burstEvery == 0 {
			n += burstSize
		}
		appendUniform(&sc, rng, t, n, tenants, keys)
	}
	return sc
}

// RampScenario scripts a diurnal triangle: the per-tick rate climbs
// linearly from zero to peakPerTick at the midpoint and back down — the
// shape that exercises a controller's ability to both grow and give
// back.
func RampScenario(seed uint64, tenants, ticks, peakPerTick int, keys uint64) Scenario {
	rng := stats.NewRNG(seed | 1)
	sc := Scenario{Name: "ramp", Ticks: ticks}
	half := ticks / 2
	if half == 0 {
		half = 1
	}
	for t := 0; t < ticks; t++ {
		dist := t
		if t > half {
			dist = ticks - t
		}
		n := peakPerTick * dist / half
		appendUniform(&sc, rng, t, n, tenants, keys)
	}
	return sc
}

// HotKeyScenario scripts perTick arrivals per tick of which hotFrac
// target the single hot pair (tenant 0, key 0) — all of them pinned to
// one shard by the routing invariant — while the rest spread uniformly.
// Hot arrivals carry Priority 1, background Priority 0, so overload
// control has a low class to shed first. This is the skew regime the
// adaptivity loop exists for: the hot key itself may never migrate
// (same-key order), so relief must come from stealing the background
// jobs off the hot shard and growing its drain batch.
func HotKeyScenario(seed uint64, tenants, ticks, perTick int, keys uint64, hotFrac float64) Scenario {
	rng := stats.NewRNG(seed | 1)
	sc := Scenario{Name: "hotkey", Ticks: ticks}
	for t := 0; t < ticks; t++ {
		for i := 0; i < perTick; i++ {
			if rng.Float64() < hotFrac {
				sc.Arrivals = append(sc.Arrivals, Arrival{Tick: t, Tenant: 0, Key: 0, Priority: 1})
				continue
			}
			appendUniform(&sc, rng, t, 1, tenants, keys)
		}
	}
	return sc
}

// SameShardScenario is the adversarial script: every arrival belongs to
// tenant index 0 and every key is chosen — against the real shardIndex
// mix for the given tenant name and shard count — to land on one shard,
// so a static server funnels the whole offered load through a single
// shard while its siblings idle. Keys are drawn from a pool of
// distinct colliding keys (so most queued jobs are singleton-key and
// therefore stealable); the player's Tenants[0] must be the tenant
// registered under name.
func SameShardScenario(seed uint64, ticks, perTick, shards int, name string) Scenario {
	if shards < 1 {
		shards = 1
	}
	hash := fnv64a(name)
	target := shardIndex(hash, 0, shards)
	pool := make([]uint64, 0, 4096)
	for k := uint64(0); len(pool) < cap(pool); k++ {
		if shardIndex(hash, k, shards) == target {
			pool = append(pool, k)
		}
	}
	rng := stats.NewRNG(seed | 1)
	sc := Scenario{Name: "sameshard", Ticks: ticks}
	for t := 0; t < ticks; t++ {
		for i := 0; i < perTick; i++ {
			sc.Arrivals = append(sc.Arrivals, Arrival{
				Tick: t, Tenant: 0, Key: pool[rng.Intn(len(pool))],
			})
		}
	}
	return sc
}

// ShiftScenario scripts a key-popularity regime change at the midpoint:
// for the first half the hot key is 0 and the background draws uniform
// keys below keys; for the second half the hot key is keys itself and
// the background draws from [keys, 2*keys). Every key of phase two is
// >= keys, so a handler can derive its cost regime (and a test its
// expectations) from the key alone. Hot arrivals carry Priority 1 and
// tenant 0, like HotKeyScenario. This is the drift the continuous-
// compilation controller exists for: a sketch and plan learned in phase
// one are exactly wrong in phase two, and the script is deterministic,
// so the controller's re-planning decisions replay identically.
func ShiftScenario(seed uint64, tenants, ticks, perTick int, keys uint64, hotFrac float64) Scenario {
	if keys == 0 {
		keys = 1024
	}
	rng := stats.NewRNG(seed | 1)
	sc := Scenario{Name: "shift", Ticks: ticks}
	half := ticks / 2
	for t := 0; t < ticks; t++ {
		hot, lo := uint64(0), uint64(0)
		if t >= half {
			hot, lo = keys, keys
		}
		for i := 0; i < perTick; i++ {
			if rng.Float64() < hotFrac {
				sc.Arrivals = append(sc.Arrivals, Arrival{Tick: t, Tenant: 0, Key: hot, Priority: 1})
				continue
			}
			sc.Arrivals = append(sc.Arrivals, Arrival{
				Tick:   t,
				Tenant: rng.Intn(tenants),
				Key:    lo + rng.Uint64()%keys,
			})
		}
	}
	return sc
}

// LocalHotScenario is the data-plane script: every arrival declares a
// working set over the tenant's registered objects, and the traffic
// concentrates on the first hot object indices — the caller homes those
// at one locale (the "hot" locale), so locality routing can serve the
// bulk of the load locally while hash routing scatters it into remote
// accesses. Each hot arrival (hotFrac of the load) reads a hot object
// plus one "sidecar" drawn from the remaining indices; the sidecar is
// read-mostly, but writeFrac of hot arrivals also write it, so the
// locality loop sees both replication candidates (read-mostly sidecars
// at the hot locale) and migration candidates (write-heavy sidecars
// whose writers all sit at the hot locale). Background arrivals read
// one uniform object. Majority-home routing ties break toward the
// first object, so hot arrivals pin to the hot locale even when their
// sidecar lives elsewhere.
func LocalHotScenario(seed uint64, tenants, ticks, perTick, objects, hot int, hotFrac, writeFrac float64, keys uint64) Scenario {
	if objects < 2 {
		objects = 2
	}
	if hot < 1 {
		hot = 1
	}
	if hot >= objects {
		hot = objects - 1
	}
	if keys == 0 {
		keys = 1024
	}
	rng := stats.NewRNG(seed | 1)
	sc := Scenario{Name: "localhot", Ticks: ticks}
	for t := 0; t < ticks; t++ {
		for i := 0; i < perTick; i++ {
			a := Arrival{Tick: t, Tenant: rng.Intn(tenants), Key: rng.Uint64() % keys}
			if rng.Float64() < hotFrac {
				primary := rng.Intn(hot)
				sidecar := hot + rng.Intn(objects-hot)
				a.WorkingSet = []int{primary, sidecar}
				if rng.Float64() < writeFrac {
					a.WriteSet = []int{sidecar}
				}
			} else {
				a.WorkingSet = []int{rng.Intn(objects)}
			}
			sc.Arrivals = append(sc.Arrivals, a)
		}
	}
	return sc
}

// appendUniform adds n arrivals at tick t with uniform tenant and key.
func appendUniform(sc *Scenario, rng *stats.RNG, t, n, tenants int, keys uint64) {
	if keys == 0 {
		keys = 1024
	}
	for i := 0; i < n; i++ {
		sc.Arrivals = append(sc.Arrivals, Arrival{
			Tick:   t,
			Tenant: rng.Intn(tenants),
			Key:    rng.Uint64() % keys,
		})
	}
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

// PlayConfig parameterizes one scenario playback.
type PlayConfig struct {
	// Tenants maps Arrival.Tenant indices to handles (required).
	Tenants []*Tenant
	// Tick is the injected clock: the real duration of one virtual tick
	// (default 1ms). Halve it and the same script plays twice as fast;
	// the script itself never changes.
	Tick time.Duration
	// MaxSamples bounds the latency reservoir (default 1<<20).
	MaxSamples int
	// Submit admits each arrival (default: the arrival's tenant's
	// SubmitFunc). It receives the arrival and its resolved request
	// (key, priority, deadline and working sets; the payload is the
	// hook's to set) and must call done exactly once with the terminal
	// result — unless it returns an error, in which case it must not
	// call done and the player counts the arrival rejected. A pipeline
	// flow (Tenant.SubmitFlowFunc) or a cluster flow is one such hook.
	Submit func(a Arrival, req Request, done func(Result)) error
}

// playDrain bounds how long PlayScenario waits, after the script's last
// tick, for requests still outstanding; one unresolved then is
// reported, not waited on.
const playDrain = time.Minute

// PlayScenario plays the script against s, tick by tick: each tick's
// arrivals are admitted one by one through cfg.Submit, deadlines are
// resolved from DeadlineTicks against the injected clock, and playback
// paces itself to the tick grid (a playback that falls behind submits
// late rather than dropping script entries). It blocks until every
// offered request has resolved, or playDrain past the last tick, and
// returns the aggregate report — rejected submissions surface as
// StatusRejected outcomes, and a Census counts each arrival once, in
// the slot of its index in the script, however often it resolves.
func PlayScenario(s *Server, sc Scenario, cfg PlayConfig) LoadReport {
	if len(cfg.Tenants) == 0 {
		panic("serve: PlayScenario: no tenant handles")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	played := sort.Search(len(sc.Arrivals), func(k int) bool { return sc.Arrivals[k].Tick >= sc.Ticks })
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 1 << 20
	}
	col := &collector{Census: NewCensus(played), samples: make([]atomic.Int64, cfg.MaxSamples)}
	submit := cfg.Submit
	if submit == nil {
		submit = func(a Arrival, req Request, done func(Result)) error {
			return cfg.Tenants[a.Tenant].SubmitFunc(req, done)
		}
	}
	i := 0
	start := clock.Now()
	for tick := 0; tick < sc.Ticks; tick++ {
		if d := time.Duration(tick)*cfg.Tick - time.Duration(clock.Now()-start); d > 0 {
			time.Sleep(d)
		}
		now := clock.Now().Time()
		for ; i < len(sc.Arrivals) && sc.Arrivals[i].Tick <= tick; i++ {
			a := sc.Arrivals[i]
			var dl time.Time
			if a.DeadlineTicks > 0 {
				dl = now.Add(time.Duration(a.DeadlineTicks) * cfg.Tick)
			}
			req := Request{
				Key: a.Key, Priority: a.Priority, Deadline: dl,
				WorkingSet: resolveObjs(cfg.Tenants[a.Tenant], a.WorkingSet),
				WriteSet:   resolveObjs(cfg.Tenants[a.Tenant], a.WriteSet),
			}
			k := i // the arrival's census slot
			if err := submit(a, req, func(r Result) { col.done(k, r) }); err != nil {
				col.done(k, Result{Status: StatusRejected, Err: err, Priority: a.Priority})
			}
		}
	}
	col.Wait(playDrain)
	return col.report(int64(i), time.Duration(clock.Now()-start))
}

// resolveObjs maps a script's object indices onto one tenant's
// registered mem.Space ids. Scripts referencing objects a tenant never
// registered are programmer error: panic loudly rather than play a
// script that silently declares less than it says.
func resolveObjs(t *Tenant, idx []int) []mem.ObjID {
	if len(idx) == 0 {
		return nil
	}
	ids := make([]mem.ObjID, len(idx))
	for i, k := range idx {
		if k < 0 || k >= len(t.objects) {
			panic(fmt.Sprintf("serve: scenario references object %d of tenant %q, which has %d objects",
				k, t.name, len(t.objects)))
		}
		ids[i] = t.objects[k]
	}
	return ids
}

// LoadReport summarizes one generator run against a server.
type LoadReport struct {
	// Each offered arrival is counted once, by its first resolution, as
	// Completed, Rejected, Shed or Failed.
	Offered, Rejected, Shed, Completed, Failed int64
	// DoubleResolves counts the resolutions past an arrival's first, and
	// Unresolved the arrivals still open when playback stopped waiting:
	// both 0 on a correct server.
	DoubleResolves, Unresolved int64
	Elapsed                    time.Duration
	// Throughput is completed jobs per second of generation time.
	Throughput float64
	// Latency quantiles over completed jobs (admission to completion).
	P50, P99, Max time.Duration
}

// ShedRate is the fraction of offered jobs dropped by backpressure or
// deadline shedding.
func (r LoadReport) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Rejected+r.Shed) / float64(r.Offered)
}

// collector accumulates a playback's outcomes: the census counts each
// arrival once, and the first resolution of a completed one lands in a
// bounded latency reservoir. The reservoir's slots are atomic because a
// resolution may still land after a bounded wait gave up.
type collector struct {
	*Census
	samples  []atomic.Int64 // Result.Total of completed jobs
	nsamples atomic.Int64
}

// done folds one resolution of census index i in.
func (c *collector) done(i int, r Result) {
	if c.Resolve(i, r) && r.Status == StatusOK {
		if k := c.nsamples.Add(1) - 1; int(k) < len(c.samples) {
			c.samples[k].Store(int64(r.Total))
		}
	}
}

// report assembles the final LoadReport.
func (c *collector) report(offered int64, elapsed time.Duration) LoadReport {
	t := c.Tally()
	rep := LoadReport{
		Offered:        offered,
		Elapsed:        elapsed,
		Rejected:       int64(t.Rejected),
		Completed:      int64(t.OK),
		Shed:           int64(t.Shed),
		Failed:         int64(t.Failed),
		DoubleResolves: int64(t.Duplicates),
		Unresolved:     int64(t.Unresolved),
	}
	rep.Throughput = float64(rep.Completed) / elapsed.Seconds()
	n := min(int(c.nsamples.Load()), len(c.samples))
	lats := make([]float64, n)
	for k := range lats {
		lats[k] = float64(c.samples[k].Load())
	}
	sort.Float64s(lats)
	if n > 0 {
		rep.P50 = time.Duration(stats.Quantile(lats, 0.50))
		rep.P99 = time.Duration(stats.Quantile(lats, 0.99))
		rep.Max = time.Duration(lats[n-1])
	}
	return rep
}
