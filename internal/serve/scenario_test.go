package serve

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/litlx"
)

func sameArrivals(a, b []Arrival) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tick != b[i].Tick || a[i].Tenant != b[i].Tenant ||
			a[i].Key != b[i].Key || a[i].Priority != b[i].Priority ||
			a[i].DeadlineTicks != b[i].DeadlineTicks ||
			!sameInts(a[i].WorkingSet, b[i].WorkingSet) ||
			!sameInts(a[i].WriteSet, b[i].WriteSet) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScenarioDeterministic: a scenario is a pure function of its seed
// and shape — the whole point of replacing wall-clock generation with a
// script. Same seed, identical schedule; different seed, different one.
func TestScenarioDeterministic(t *testing.T) {
	build := map[string]func(seed uint64) Scenario{
		"bursty":    func(seed uint64) Scenario { return BurstyScenario(seed, 4, 50, 3, 10, 20, 256) },
		"ramp":      func(seed uint64) Scenario { return RampScenario(seed, 4, 50, 12, 256) },
		"hotkey":    func(seed uint64) Scenario { return HotKeyScenario(seed, 4, 50, 8, 256, 0.5) },
		"sameshard": func(seed uint64) Scenario { return SameShardScenario(seed, 50, 8, 8, "t0") },
		"localhot":  func(seed uint64) Scenario { return LocalHotScenario(seed, 4, 50, 8, 12, 3, 0.7, 0.3, 256) },
		"shift":     func(seed uint64) Scenario { return ShiftScenario(seed, 4, 50, 8, 256, 0.5) },
		"open":      func(seed uint64) Scenario { return OpenLoopScenario(seed, 4, 50, 8, 1.0, 256) },
	}
	for name, f := range build {
		a, b := f(7), f(7)
		if !sameArrivals(a.Arrivals, b.Arrivals) {
			t.Errorf("%s: same seed produced different schedules", name)
		}
		if a.Offered() == 0 {
			t.Errorf("%s: empty schedule", name)
		}
		c := f(8)
		if sameArrivals(a.Arrivals, c.Arrivals) {
			t.Errorf("%s: different seeds produced identical schedules", name)
		}
		for i := 1; i < len(a.Arrivals); i++ {
			if a.Arrivals[i].Tick < a.Arrivals[i-1].Tick {
				t.Fatalf("%s: arrivals out of tick order at %d", name, i)
			}
		}
	}
}

// TestScenarioShapes: each constructor delivers the traffic shape its
// name promises.
func TestScenarioShapes(t *testing.T) {
	perTick := func(sc Scenario) []int {
		counts := make([]int, sc.Ticks)
		for _, a := range sc.Arrivals {
			counts[a.Tick]++
		}
		return counts
	}

	bursty := BurstyScenario(3, 4, 40, 2, 10, 30, 256)
	bc := perTick(bursty)
	if bc[10] != 32 || bc[11] != 2 {
		t.Errorf("bursty: tick 10/11 = %d/%d, want 32/2", bc[10], bc[11])
	}

	ramp := RampScenario(3, 4, 40, 20, 256)
	rc := perTick(ramp)
	if rc[1] >= rc[20] || rc[39] >= rc[20] {
		t.Errorf("ramp: edges (%d, %d) should undercut the midpoint (%d)", rc[1], rc[39], rc[20])
	}

	hot := HotKeyScenario(3, 4, 200, 10, 256, 0.6)
	hotN := 0
	for _, a := range hot.Arrivals {
		if a.Priority == 1 { // the hot class carries priority 1
			hotN++
			if a.Tenant != 0 || a.Key != 0 {
				t.Fatal("hot arrivals must target (tenant 0, key 0)")
			}
		}
	}
	frac := float64(hotN) / float64(hot.Offered())
	if frac < 0.5 || frac > 0.7 {
		t.Errorf("hotkey: hot fraction %.2f, want ~0.6", frac)
	}

	const shards = 8
	same := SameShardScenario(3, 40, 8, shards, "victim")
	hash := fnv64a("victim")
	want := shardIndex(hash, same.Arrivals[0].Key, shards)
	keys := make(map[uint64]bool)
	for _, a := range same.Arrivals {
		if got := shardIndex(hash, a.Key, shards); got != want {
			t.Fatalf("sameshard: key %d routes to shard %d, want %d", a.Key, got, want)
		}
		keys[a.Key] = true
	}
	if len(keys) < same.Offered()/2 {
		t.Errorf("sameshard: only %d distinct keys in %d arrivals; stealing needs singletons", len(keys), same.Offered())
	}

	const tenants, openPerTick = 8, 20
	open := OpenLoopScenario(3, tenants, 100, openPerTick, 1.2, 256)
	for tk, n := range perTick(open) {
		if n != openPerTick {
			t.Fatalf("open: tick %d holds %d arrivals, want %d", tk, n, openPerTick)
		}
	}
	byTenant := make([]int, tenants)
	for _, a := range open.Arrivals {
		byTenant[a.Tenant]++
	}
	if byTenant[0] <= byTenant[tenants-1] {
		t.Errorf("open: skew 1.2 should favor tenant 0: %v", byTenant)
	}

	const tightFrac = 0.3
	dl := open.WithDeadline(3, tightFrac, 2, 9)
	tight := 0
	for _, a := range dl.Arrivals {
		switch a.DeadlineTicks {
		case 2:
			tight++
		case 9:
		default:
			t.Fatalf("WithDeadline gave %d ticks, want the tight 2 or the loose 9", a.DeadlineTicks)
		}
	}
	if share := float64(tight) / float64(dl.Offered()); math.Abs(share-tightFrac) > 0.05 {
		t.Errorf("WithDeadline tight share %.3f, want %.2f +- 0.05", share, tightFrac)
	}
	for _, a := range open.Arrivals {
		if a.DeadlineTicks != 0 {
			t.Fatal("WithDeadline mutated the source scenario")
		}
	}
}

// TestPlayScenarioAccounts: playback accounts for every scripted
// arrival, exactly once, through one uniform Result surface.
func TestPlayScenarioAccounts(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4, QueueDepth: 1024})
	defer s.Close()
	handles := make([]*Tenant, 3)
	for i, name := range []string{"a", "b", "c"} {
		tn, err := s.RegisterTenant(TenantConfig{
			Name:    name,
			Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = tn
	}
	sc := BurstyScenario(5, len(handles), 30, 4, 7, 12, 512)
	rep := PlayScenario(s, sc, PlayConfig{Tenants: handles, Tick: 200 * time.Microsecond})
	if rep.Offered != int64(sc.Offered()) {
		t.Fatalf("offered %d, script holds %d", rep.Offered, sc.Offered())
	}
	if got := rep.Completed + rep.Rejected + rep.Shed + rep.Failed; got != rep.Offered {
		t.Fatalf("accounting leak: %d of %d unresolved", rep.Offered-got, rep.Offered)
	}
	if rep.Completed == 0 || rep.P99 <= 0 {
		t.Fatalf("degenerate playback: %+v", rep)
	}
}

// TestPlayScenarioSubmitErrorRejectsOnce: an arrival whose Submit hook
// returns an error is counted rejected exactly once, and the player
// does not wait for a done the hook never calls.
func TestPlayScenarioSubmitErrorRejectsOnce(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, QueueDepth: 1024})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := OpenLoopScenario(9, 1, 20, 6, 0, 512)
	refuse := errors.New("refused by hook")
	var n, refused int64
	rep := PlayScenario(s, sc, PlayConfig{
		Tenants: []*Tenant{tn},
		Tick:    100 * time.Microsecond,
		Submit: func(_ Arrival, req Request, done func(Result)) error {
			if n++; n%3 == 0 {
				refused++
				return refuse
			}
			return tn.SubmitFunc(req, done)
		},
	})
	if rep.Offered != int64(sc.Offered()) || refused == 0 {
		t.Fatalf("offered %d of %d, %d refused", rep.Offered, sc.Offered(), refused)
	}
	if rep.Rejected != refused || rep.Completed != rep.Offered-refused || rep.Shed+rep.Failed != 0 {
		t.Fatalf("report %+v, want exactly %d rejected and the rest completed", rep, refused)
	}
}

// TestPlayScenarioCountsDoubleResolveOnce: an arrival whose Submit hook
// resolves it twice is reported as one double resolve and counted
// once, and playback still waits for, and counts, every other arrival.
func TestPlayScenarioCountsDoubleResolveOnce(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, QueueDepth: 1024})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := OpenLoopScenario(3, 1, 10, 4, 0, 512)
	var n int
	rep := PlayScenario(s, sc, PlayConfig{
		Tenants: []*Tenant{tn},
		Tick:    100 * time.Microsecond,
		Submit: func(_ Arrival, req Request, done func(Result)) error {
			if n++; n == 5 {
				return tn.SubmitFunc(req, func(r Result) { done(r); done(r) })
			}
			return tn.SubmitFunc(req, done)
		},
	})
	if rep.DoubleResolves != 1 || rep.Unresolved != 0 {
		t.Fatalf("%d double resolves and %d unresolved, want 1 and 0", rep.DoubleResolves, rep.Unresolved)
	}
	if rep.Offered != int64(sc.Offered()) || rep.Completed != rep.Offered {
		t.Fatalf("report %+v, want every one of %d arrivals completed once", rep, sc.Offered())
	}
}

// adaptiveVsStatic plays one script against two servers that differ
// only in Config.Adapt, on fresh systems, and returns both reports. The
// handlers sleep rather than spin, so per-shard capacity is set by
// InflightBatches and the sleep — not by the host's core count — and
// the comparison is stable on loaded CI machines.
func adaptiveVsStatic(t *testing.T, sc Scenario, tick time.Duration) (static, adaptive LoadReport, as AdaptStats) {
	t.Helper()
	run := func(enable bool) (LoadReport, AdaptStats) {
		sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cfg := Config{Shards: 8, QueueDepth: 256, Batch: 4, InflightBatches: 2}
		if enable {
			cfg.Adapt = AdaptConfig{
				Enabled:        true,
				BatchMin:       1,
				BatchMax:       64,
				RebalanceEvery: 250 * time.Microsecond,
				LatencyBudget:  time.Second, // keep overload shedding out of this comparison
			}
		}
		s := New(sys, cfg)
		defer s.Close()
		tn, err := s.RegisterTenant(TenantConfig{
			Name: "t0",
			Handler: func(_ *Ctx, _ Request) (any, error) {
				time.Sleep(150 * time.Microsecond)
				return nil, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := PlayScenario(s, sc, PlayConfig{Tenants: []*Tenant{tn}, Tick: tick})
		return rep, s.AdaptStats()
	}
	static, _ = run(false)
	adaptive, as = run(true)
	return static, adaptive, as
}

// TestAdaptiveBeatsStaticOnSkew is the PR's acceptance test: on the
// adversarial same-shard script — every arrival pinned to one shard of
// eight — the closed adaptivity loop must beat the identical static
// configuration on tail latency or loss, and its controllers must
// observably move (monitor counters, not logs). The script is seeded
// and the handler sleep-paced, so both servers face the exact same
// traffic at machine-independent per-shard capacity.
func TestAdaptiveBeatsStaticOnSkew(t *testing.T) {
	// 20k jobs/s against a single shard that can do ~13k/s
	// (2 in-flight batches / 150us): the hot shard drowns unless the
	// rebalancer spreads the backlog over the 7 idle shards (8x the
	// capacity, ample).
	sc := SameShardScenario(17, 150, 10, 8, "t0")
	static, adaptive, as := adaptiveVsStatic(t, sc, 500*time.Microsecond)

	staticLoss := static.Rejected + static.Shed
	adaptiveLoss := adaptive.Rejected + adaptive.Shed
	if adaptive.P99 >= static.P99 && adaptiveLoss >= staticLoss {
		t.Errorf("adaptivity won nothing: static p99=%v loss=%d vs adaptive p99=%v loss=%d",
			static.P99, staticLoss, adaptive.P99, adaptiveLoss)
	}
	// The controllers must have acted, and say so through the monitor.
	if as.Steals == 0 {
		t.Errorf("steal counter never moved under total skew: %+v", as)
	}
	if as.Rebalances == 0 {
		t.Errorf("rebalance counter never moved: %+v", as)
	}
	if as.BatchGrows == 0 {
		t.Errorf("batch bound never grew on a drowning shard: %+v", as)
	}
}

// TestAdaptiveHotKeyShiftsBatchAndSteals: under hot-key skew (the hot
// pair itself may never migrate) the loop still relieves the hot shard
// by stealing background work off it and retuning batch bounds; the
// same controllers stay quiet on a static server.
func TestAdaptiveHotKeyShiftsBatchAndSteals(t *testing.T) {
	sc := HotKeyScenario(23, 1, 120, 12, 4096, 0.5)
	static, adaptive, as := adaptiveVsStatic(t, sc, 500*time.Microsecond)
	if static.Offered != adaptive.Offered {
		t.Fatalf("scripts diverged: %d vs %d offered", static.Offered, adaptive.Offered)
	}
	if as.Steals == 0 {
		t.Errorf("no background work stolen off the hot shard: %+v", as)
	}
	if as.BatchGrows == 0 && as.BatchShrinks == 0 {
		t.Errorf("batch controller never retuned under skew: %+v", as)
	}
	// And the static server's adaptivity counters stay at zero — the
	// movement genuinely comes from the loop, not ambient traffic.
	if static.Completed == 0 || adaptive.Completed == 0 {
		t.Fatalf("degenerate runs: static %+v adaptive %+v", static, adaptive)
	}
}
