package serve

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/litlx"
	"repro/internal/monitor"
	"repro/internal/serve/contc"
)

func newTestBatchController(max, start int, budget time.Duration) *batchController {
	cfg := Config{
		Batch: start,
		Adapt: AdaptConfig{Enabled: true, BatchMax: max, LatencyBudget: budget},
	}.withDefaults()
	srv := &Server{cfg: cfg, sys: &litlx.System{Mon: monitor.New()}, decisions: &decisionLog{}}
	return newBatchController(srv, &shard{}, srv.sys.Mon.Counter("grow"), srv.sys.Mon.Counter("shrink"))
}

func TestBatchControllerGrowsOnBacklog(t *testing.T) {
	c := newTestBatchController(64, 4, time.Second)
	for i := 0; i < 32; i++ {
		c.observeDepth(512) // queue far ahead of the batch: amortize more
	}
	if got := c.batch(); got != 64 {
		t.Errorf("batch after sustained backlog = %d, want max 64", got)
	}
	// Bounded: further pressure cannot push past the configured max.
	c.observeDepth(100000)
	if got := c.batch(); got > 64 {
		t.Errorf("batch exceeded max: %d", got)
	}
}

func TestBatchControllerShrinksWhenIdle(t *testing.T) {
	c := newTestBatchController(64, 32, time.Second)
	for i := 0; i < 64; i++ {
		c.observeDepth(0) // empty queue: batching only adds latency
	}
	if got := c.batch(); got != 1 {
		t.Errorf("batch after sustained idle = %d, want the floor 1", got)
	}
}

func TestBatchControllerShrinksOnLatencyBreach(t *testing.T) {
	c := newTestBatchController(64, 32, time.Millisecond)
	// Deep queue argues for growth, but every batch blows the 1ms
	// budget: the histogram must veto growth and force shrink.
	for i := 0; i < 16; i++ {
		c.observeLatency(50_000) // 50ms per batch
	}
	for i := 0; i < 16; i++ {
		c.observeDepth(512)
	}
	if got := c.batch(); got != 1 {
		t.Errorf("batch under latency breach = %d, want shrunk to min 1", got)
	}
}

func TestOverloadControllerLevelDynamics(t *testing.T) {
	// An alpha-1 estimator reports exactly the last wait observed, so each
	// pass sees the wait the test dictates.
	srv := &Server{waitUS: monitor.NewEWMA(1), decisions: &decisionLog{}}
	o := &overloadController{srv: srv, budgetUS: 1000} // 1ms budget
	pass := func(waitUS float64) {
		srv.waitUS.Observe(waitUS)
		o.once(time.Time{})
	}
	if o.shedLevel() != 0 {
		t.Fatalf("initial shed level = %d", o.shedLevel())
	}
	// Sustained breach climbs one step per pass, capped at maxShedLevel.
	for i := 0; i < 10; i++ {
		pass(5000) // 5ms wait against a 1ms budget
	}
	if got := o.shedLevel(); got != maxShedLevel {
		t.Errorf("shed level after sustained breach = %d, want capped at %d", got, maxShedLevel)
	}
	// Hovering between budget/2 and budget holds the level (hysteresis).
	pass(800)
	if got := o.shedLevel(); got != maxShedLevel {
		t.Errorf("shed level in hysteresis band moved to %d", got)
	}
	// Recovery below half the budget decays back to zero.
	for i := 0; i < 10; i++ {
		pass(100)
	}
	if got := o.shedLevel(); got != 0 {
		t.Errorf("shed level after recovery = %d, want 0", got)
	}
	// A nil controller (adaptivity off) reports level 0.
	var off *overloadController
	if off.shedLevel() != 0 {
		t.Error("nil overload controller must report level 0")
	}
}

// TestControlPlaneCadence drives step over synthetic times (no sleeps,
// the loop stopped) and counts each controller's passes: every
// controller keeps its own period, whatever the loop's ticker period —
// the smallest installed one — happens to be. The old loop rounded each
// period to a whole number of RebalanceEvery ticks (500us ran at 1ms,
// 2.5ms at 2ms).
func TestControlPlaneCadence(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		name   string
		cfg    Config
		period time.Duration
		want   []int // passes over 10ms, in install order
	}{
		{
			name: "overload+rebalance 1ms, locality 8ms, compile 500us",
			cfg: Config{
				Adapt:   AdaptConfig{Enabled: true, RebalanceEvery: 1000 * us, Locality: true},
				Compile: CompileConfig{Enabled: true, Every: 500 * us},
			},
			period: 500 * us,
			want:   []int{10, 10, 1, 20},
		},
		{
			name:   "adapt off, compile on (exp V7)",
			cfg:    Config{Compile: CompileConfig{Enabled: true, Every: 2000 * us}},
			period: 2000 * us,
			want:   []int{5},
		},
		{
			name: "a period that is no multiple of the ticker's",
			cfg: Config{
				Adapt:   AdaptConfig{Enabled: true, RebalanceEvery: 1000 * us},
				Compile: CompileConfig{Enabled: true, Every: 2500 * us},
			},
			period: 1000 * us,
			want:   []int{10, 10, 4},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t)
			defer sys.Close()
			tc.cfg.Shards = 2
			s := New(sys, tc.cfg)
			s.Close() // stops the loop: the test owns the controllers from here
			if got := s.period(); got != tc.period {
				t.Fatalf("loop period = %v, want %v", got, tc.period)
			}
			base := time.Unix(0, 0)
			runs := make([]int, len(s.controllers))
			for i := range s.controllers {
				c := &s.controllers[i]
				c.next = base.Add(c.every)
				c.once = func(time.Time) { runs[i]++ }
			}
			for now := base.Add(tc.period); !now.After(base.Add(10 * time.Millisecond)); now = now.Add(tc.period) {
				s.step(now)
			}
			if !reflect.DeepEqual(runs, tc.want) {
				t.Fatalf("passes over 10ms = %v, want %v", runs, tc.want)
			}
			// A stalled loop skips the periods it missed: one pass each,
			// not a catch-up burst.
			s.step(base.Add(time.Second))
			s.step(base.Add(time.Second))
			for i, n := range runs {
				if n != tc.want[i]+1 {
					t.Errorf("controller %d ran %d times after a 1s stall, want %d", i, n, tc.want[i]+1)
				}
			}
		})
	}
}

// stealTenant builds a detached tenant handle for shard-level tests,
// with the solo stage every real tenant has.
func stealTenant(hash uint64, shards int, resident bool) *Tenant {
	t := &Tenant{hash: hash, resident: make([]atomic.Bool, shards)}
	t.solo = &Pipeline{t: t, name: "solo", stages: []*pipeStage{{name: "handler", last: true}}}
	for i := range t.resident {
		t.resident[i].Store(resident)
	}
	return t
}

// testJob is the one place tests build a Job by hand: a detached record
// shaped the way construct shapes a plain submission — a real (solo)
// stage, never nil — for shard- and ring-level tests that queue and
// steal jobs without ever finishing them.
func testJob(tn *Tenant, req Request) *Job {
	return &Job{tenant: tn, req: req, deadline: clock.Of(req.Deadline), stage: tn.solo.stages[0]}
}

func queueKeys(sh *shard) []uint64 {
	r := &sh.ring
	r.consMu.Lock()
	defer r.consMu.Unlock()
	var keys []uint64
	h, t := r.head.Load(), r.tail.Load()
	for p := h; p < t; p++ {
		c := &r.cells[p&r.mask]
		if c.seq.Load() != p+1 {
			break // unpublished gap: prefix ends here
		}
		keys = append(keys, c.job.req.Key)
	}
	return keys
}

func TestStealJobsPreservesSameKeyOrder(t *testing.T) {
	src, dst := newShard(0, 64), newShard(1, 64)
	tn := stealTenant(42, 2, true)
	for _, k := range []uint64{1, 2, 2, 3, 4, 2, 5} {
		if !src.enqueue(testJob(tn, Request{Key: k})) {
			t.Fatal("enqueue failed")
		}
	}
	// Singleton keys are 1, 3, 4, 5; stealing 3 must take the newest
	// three of those (3, 4, 5) and leave every key-2 job in place, in
	// order.
	if moved := stealJobsInto(src, dst, 3, &stealScratch{}); moved != 3 {
		t.Fatalf("moved %d jobs, want 3", moved)
	}
	wantSrc := []uint64{1, 2, 2, 2}
	wantDst := []uint64{3, 4, 5}
	gotSrc, gotDst := queueKeys(src), queueKeys(dst)
	for i, k := range wantSrc {
		if i >= len(gotSrc) || gotSrc[i] != k {
			t.Fatalf("src queue after steal = %v, want %v", gotSrc, wantSrc)
		}
	}
	for i, k := range wantDst {
		if i >= len(gotDst) || gotDst[i] != k {
			t.Fatalf("dst queue after steal = %v, want %v", gotDst, wantDst)
		}
	}
	// Nothing left to steal: every remaining duplicate key must stay.
	if moved := stealJobsInto(src, dst, 10, &stealScratch{}); moved != 1 { // only key 1 is singleton
		t.Fatalf("second steal moved %d, want 1 (only the singleton key 1)", moved)
	}
	if moved := stealJobsInto(src, dst, 10, &stealScratch{}); moved != 0 {
		t.Fatalf("third steal moved %d duplicate-key jobs, want 0", moved)
	}
}

func TestStealJobsRespectsResidency(t *testing.T) {
	src, dst := newShard(0, 64), newShard(1, 64)
	cold := stealTenant(7, 2, false)
	cold.resident[0].Store(true) // resident at home only
	for k := uint64(0); k < 8; k++ {
		src.enqueue(testJob(cold, Request{Key: k}))
	}
	if moved := stealJobsInto(src, dst, 8, &stealScratch{}); moved != 0 {
		t.Fatalf("stole %d jobs onto a shard without the tenant's image, want 0", moved)
	}
	warm := stealTenant(9, 2, true)
	src.enqueue(testJob(warm, Request{Key: 100}))
	if moved := stealJobsInto(src, dst, 8, &stealScratch{}); moved != 1 {
		t.Fatalf("moved %d, want exactly the resident tenant's job", moved)
	}
}

func TestStealJobsRespectsCapacityAndShutdown(t *testing.T) {
	src, dst := newShard(0, 64), newShard(1, 4)
	tn := stealTenant(3, 2, true)
	for k := uint64(0); k < 16; k++ {
		src.enqueue(testJob(tn, Request{Key: k}))
	}
	dst.enqueue(testJob(tn, Request{Key: 1000}))
	// Destination has 3 free slots: a request for 10 moves at most 3.
	if moved := stealJobsInto(src, dst, 10, &stealScratch{}); moved != 3 {
		t.Fatalf("moved %d into a shard with 3 free slots, want 3", moved)
	}
	dst.shutdown()
	if moved := stealJobsInto(src, dst, 10, &stealScratch{}); moved != 0 {
		t.Fatalf("stole %d jobs into a shut shard, want 0", moved)
	}
	if moved := stealJobsInto(src, src, 10, &stealScratch{}); moved != 0 {
		t.Fatalf("self-steal moved %d, want 0", moved)
	}
}

func TestOverloadShedsLowPriorityOnly(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	// A tiny latency budget and a blocking tenant: the wait EWMA blows
	// through the budget, the shed level rises, and queued priority-0
	// jobs are dropped at drain while priority-9 jobs still execute.
	s := New(sys, Config{
		Shards: 1, QueueDepth: 256, Batch: 4, InflightBatches: 1,
		Adapt: AdaptConfig{
			Enabled:        true,
			RebalanceEvery: 200 * time.Microsecond,
			LatencyBudget:  500 * time.Microsecond,
		},
	})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, _ Request) (any, error) {
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var loDone, loShed, hiDone, hiShed atomic.Int64
	record := func(r Result) {
		switch {
		case r.Priority == 0 && r.Status == StatusShed:
			loShed.Add(1)
		case r.Priority == 0:
			loDone.Add(1)
		case r.Status == StatusShed:
			hiShed.Add(1)
		default:
			hiDone.Add(1)
		}
	}
	// None of these jobs carries a deadline, so any StatusShed can only
	// come from the overload controller.
	for i := 0; i < 300; i++ {
		pri := 0
		if i%3 == 0 {
			pri = 9 // above maxShedLevel: must never be overload-shed
		}
		if err := tn.SubmitFunc(Request{Key: uint64(i), Priority: pri}, record); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Close()
	st, as := s.Stats(), s.AdaptStats()
	if as.ShedLowPriority == 0 {
		t.Fatalf("overload controller never shed (stats %+v)", as)
	}
	if hiShed.Load() != 0 {
		t.Errorf("%d jobs with priority >= maxShedLevel were shed", hiShed.Load())
	}
	if loShed.Load() != as.ShedLowPriority {
		t.Errorf("shed accounting: results saw %d low-priority sheds, counter says %d",
			loShed.Load(), as.ShedLowPriority)
	}
	if st.Shed != as.ShedLowPriority {
		t.Errorf("deadline-less run shed %d total but %d low-priority; they must match", st.Shed, as.ShedLowPriority)
	}
	if hiDone.Load() == 0 {
		t.Error("no high-priority job completed")
	}
}

func TestOverloadShedRecovers(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	// The latch hazard: once the shed level rises high enough to drop
	// all traffic, execute() observes nothing and a frozen wait EWMA
	// would hold the level at max forever. The shed path must keep
	// feeding the estimator so an idle-again server recovers.
	s := New(sys, Config{
		Shards: 1, QueueDepth: 512, Batch: 8, InflightBatches: 1,
		Adapt: AdaptConfig{
			Enabled:        true,
			RebalanceEvery: 200 * time.Microsecond,
			LatencyBudget:  time.Millisecond,
		},
	})
	defer s.Close()
	var slow atomic.Bool
	slow.Store(true)
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, _ Request) (any, error) {
			if slow.Load() {
				time.Sleep(3 * time.Millisecond)
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: flood priority-0 work until the controller engages.
	var shedSeen atomic.Int64
	for i := 0; i < 800 && shedSeen.Load() == 0; i++ {
		err := tn.SubmitFunc(Request{Key: uint64(i)}, func(r Result) {
			if r.Status == StatusShed {
				shedSeen.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if shedSeen.Load() == 0 {
		t.Fatal("overload controller never engaged under flood")
	}
	// Phase 2: the overload vanishes (fast handler, trickle arrivals).
	// Each shed job now reports a tiny queue age, the EWMA decays below
	// half the budget, the level steps down, and work completes again.
	slow.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tk, err := tn.Submit(Request{Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res := tk.Wait(); res.Status == StatusOK {
			return // recovered
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("overload shed level latched: no job completed after the overload ended")
}

func TestNegativePriorityRunsWithAdaptOff(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	// Priority is documented as ignored when Config.Adapt is off: a
	// negative class must execute normally, not be shed by a disengaged
	// overload controller.
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "bg",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := tn.Submit(Request{Key: 5, Priority: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || res.Priority != -1 {
		t.Fatalf("negative-priority job on a static server = %+v, want ok with priority echoed", res)
	}
	if st, as := s.Stats(), s.AdaptStats(); st.Shed != 0 || as.ShedLowPriority != 0 {
		t.Errorf("static server shed by priority: %+v %+v", st, as)
	}
}

func TestRebalanceOnceStealsFromHotShard(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	// Adaptivity on, but with an effectively-disabled background loop so
	// the test drives the controller by hand.
	s := New(sys, Config{
		Shards: 4, QueueDepth: 1024, Batch: 4, InflightBatches: 1,
		Adapt: AdaptConfig{Enabled: true, RebalanceEvery: time.Hour},
	})
	defer s.Close()
	block := make(chan struct{})
	var wg atomic.Int64
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "hot",
		Handler: func(_ *Ctx, _ Request) (any, error) {
			<-block
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pin all arrivals to one shard with colliding keys, enough that a
	// big imbalance is unavoidable even after the batch SGTs drain
	// their first batches.
	home := shardIndex(tn.hash, 0, 4)
	queued := 0
	for k := uint64(0); queued < 400; k++ {
		if shardIndex(tn.hash, k, 4) != home {
			continue
		}
		wg.Add(1)
		if err := tn.SubmitFunc(Request{Key: k}, func(Result) { wg.Add(-1) }); err != nil {
			t.Fatal(err)
		}
		queued++
	}
	s.rebalance.once(time.Now())
	as := s.AdaptStats()
	if as.Steals == 0 {
		t.Fatalf("the rebalance pass stole nothing from a 400-deep hot shard (pending %v)", as.Pending)
	}
	if as.Rebalances == 0 {
		t.Error("rebalance counter did not move")
	}
	if st := s.Stats(); st.Steals != as.Steals {
		t.Errorf("Stats.Steals = %d does not mirror AdaptStats.Steals = %d", st.Steals, as.Steals)
	}
	spread := 0
	for i, p := range as.Pending {
		if i != home && p > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Errorf("no idle shard received stolen work: pending %v", as.Pending)
	}
	close(block)
	for wg.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// controlPlaneReaders maps every control-plane and flow instrument in
// the monitor registry to the one Snapshot field that publishes it.
// TestStatsSnapshotOneReaderPerCounter holds the table to the registry
// and to the structs in both directions.
var controlPlaneReaders = map[string]string{
	"serve.adapt.batch_grow":   "Adapt.BatchGrows",
	"serve.adapt.batch_shrink": "Adapt.BatchShrinks",
	"serve.adapt.steals":       "Adapt.Steals", // Stats.Steals is its documented mirror
	"serve.adapt.rebalances":   "Adapt.Rebalances",
	"serve.adapt.imbalance":    "Adapt.Imbalance",
	"serve.adapt.shed_lowpri":  "Adapt.ShedLowPriority",
	"serve.adapt.migrations":   "Adapt.Migrations",
	"serve.adapt.replications": "Adapt.Replications",
	"serve.contc.plans":        "Adapt.CompilePlans",
	"serve.contc.swaps":        "Adapt.CompileSwaps",
	"serve.contc.promotions":   "Adapt.HotPromotions",
	"serve.contc.demotions":    "Adapt.HotDemotions",
	"serve.contc.fast_hits":    "Adapt.FastPathHits",
	"serve.contc.scattered":    "Adapt.ScatteredElems",
	"serve.flow.submitted":     "Stats.Flow.Submitted",
	"serve.flow.completed":     "Stats.Flow.Completed",
	"serve.flow.shed":          "Stats.Flow.Shed",
	"serve.flow.failed":        "Stats.Flow.Failed",
	"serve.flow.rejected":      "Stats.Flow.Rejected",
	"serve.flow.stage_jobs":    "Stats.Flow.StageJobs",
	"serve.flow.stage_steals":  "Stats.Flow.StageSteals",
}

// TestStatsSnapshotOneReaderPerCounter runs adaptive, compile and flow
// traffic together, then checks that every serve.adapt.* / serve.contc.*
// / serve.flow.* instrument in the registry is published by exactly one
// Snapshot field, with the registry's value — and that AdaptStats and
// FlowStats carry no counter the registry does not back, FanOut being
// the sum of the stages' serve.pipe.*.fanout counters. A counter can
// therefore be neither added without a reader nor published twice.
func TestStatsSnapshotOneReaderPerCounter(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 4, QueueDepth: 512, Batch: 4,
		Adapt:   AdaptConfig{Enabled: true, RebalanceEvery: 200 * time.Microsecond, Locality: true, LatencyBudget: time.Second},
		Compile: CompileConfig{Enabled: true, Every: 400 * time.Microsecond, MinSamples: 16, HotKeyMin: 16},
	})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(_ *Ctx, req Request) (any, error) {
			time.Sleep(20 * time.Microsecond)
			return req.Payload, nil
		},
		Specialize: func(uint64) Handler {
			return func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("scan", Stage{Name: "map", Map: true,
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }})
	if err != nil {
		t.Fatal(err)
	}
	PlayScenario(s, HotKeyScenario(7, 1, 40, 20, 256, 0.5), PlayConfig{Tenants: []*Tenant{tn}, Tick: 250 * time.Microsecond})
	PlayScenario(s, BurstyScenario(7, 1, 40, 4, 0, 0, 1), PlayConfig{
		Tenants: []*Tenant{tn}, Tick: 250 * time.Microsecond,
		Submit: func(_ Arrival, req Request, done func(Result)) error {
			req.Payload = []any{1, 2, 3, 4, 5, 6, 7, 8}
			err := tn.SubmitFlowFunc(p, req, done)
			return err
		},
	})
	s.Close()

	snap, reg := reflect.ValueOf(s.Snapshot()), sys.Mon.Snapshot()
	field := func(path string) reflect.Value {
		v := snap
		for _, name := range strings.Split(path, ".") {
			if v = v.FieldByName(name); !v.IsValid() {
				t.Fatalf("reader table names %s, which Snapshot does not have", path)
			}
		}
		return v
	}
	claimed := map[string]string{} // field path -> registry name
	check := func(name string, want float64) {
		if !strings.HasPrefix(name, "serve.adapt.") && !strings.HasPrefix(name, "serve.contc.") && !strings.HasPrefix(name, "serve.flow.") {
			return
		}
		path, ok := controlPlaneReaders[name]
		if !ok {
			t.Errorf("%s is in the registry but no Snapshot field publishes it", name)
			return
		}
		if prev, dup := claimed[path]; dup {
			t.Errorf("%s publishes both %s and %s", path, prev, name)
		}
		claimed[path] = name
		got := field(path)
		if got.CanInt() && float64(got.Int()) != want || got.CanFloat() && got.Float() != want {
			t.Errorf("%s = %v, registry %s = %v", path, got, name, want)
		}
	}
	for name, v := range reg.Counters {
		check(name, float64(v))
	}
	for name, v := range reg.EWMAs {
		check(name, v)
	}
	if len(claimed) != len(controlPlaneReaders) {
		t.Errorf("the run resolved %d of the %d instruments in the reader table", len(claimed), len(controlPlaneReaders))
	}
	var fan int64
	for name, v := range reg.Counters {
		if strings.HasPrefix(name, "serve.pipe.") && strings.HasSuffix(name, ".fanout") {
			fan += v
		}
	}
	if got := field("Stats.Flow.FanOut").Int(); fan == 0 || got != fan {
		t.Errorf("Stats.Flow.FanOut = %d, sum of serve.pipe.*.fanout = %d (want equal and > 0)", got, fan)
	}
	claimed["Stats.Flow.FanOut"] = "serve.pipe.*.fanout"
	// The other direction: every int64/float64 field of the two structs
	// is one of those readers.
	for _, root := range []string{"Adapt", "Stats.Flow"} {
		v := field(root)
		for i := 0; i < v.NumField(); i++ {
			k, path := v.Field(i).Kind(), root+"."+v.Type().Field(i).Name
			if (k == reflect.Int64 || k == reflect.Float64) && claimed[path] == "" {
				t.Errorf("%s is published but backed by no registry instrument", path)
			}
		}
	}
}

// decisionServer is a compile-enabled server (its loop never fires on
// its own) with Observe on or off, and a tenant whose key 42 the tests
// make hot.
func decisionServer(t *testing.T, observe bool) (*Server, *Tenant) {
	t.Helper()
	cfg := Config{Shards: 2, Compile: testCompileConfig()}
	if observe {
		cfg.Observe = ObserveConfig{RingSize: 8}
	}
	sys := newTestSystem(t)
	t.Cleanup(sys.Close)
	s := New(sys, cfg)
	t.Cleanup(s.Close)
	tn, err := s.RegisterTenant(TenantConfig{
		Name:       "dt",
		Handler:    func(_ *Ctx, req Request) (any, error) { return nil, nil },
		Specialize: func(uint64) Handler { return func(_ *Ctx, req Request) (any, error) { return nil, nil } },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tn
}

// promoteAndDemote drives key 42 through a compile promotion and its
// demotion, with a batch-tuner decision before, between and after.
func promoteAndDemote(t *testing.T, s *Server, tn *Tenant) {
	t.Helper()
	s.decide(0, 0, "batch grow 1 -> 2 (test)")
	for i := 0; i < 40; i++ {
		tk, err := tn.Submit(Request{Key: 42})
		if err != nil {
			t.Fatal(err)
		}
		tk.Wait()
	}
	s.comp.once(time.Now())
	s.decide(1, 1, "batch shrink 2 -> 1 (test)")
	for i := 0; i < 20 && s.AdaptStats().HotDemotions == 0; i++ {
		s.comp.once(time.Now())
	}
	s.decide(0, 0, "batch grow 1 -> 2 (test)")
}

// TestDecisionLogCompileView pins CompileDecisions as the decision log
// filtered to its compile records, and the adapt timeline as the whole
// log, each compile record labelled "contc <decision>".
func TestDecisionLogCompileView(t *testing.T) {
	s, tn := decisionServer(t, true)
	promoteAndDemote(t, s, tn)
	var want []contc.Decision
	var labels []string
	for _, r := range s.decisions.records() {
		labels = append(labels, r.label)
		if r.compile != nil {
			d := *r.compile
			d.Seq, d.At = r.seq, r.at.Time()
			want = append(want, d)
		}
	}
	got := s.CompileDecisions()
	if len(got) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("CompileDecisions = %+v, want the log's compile records %+v", got, want)
	}
	if got[0].Kind != contc.KindPromote || got[len(got)-1].Kind != contc.KindDemote {
		t.Fatalf("compile decisions %+v, want a promotion first and a demotion last", got)
	}
	adapt := s.TraceDump().Adapt
	if len(adapt) != len(labels) || len(adapt) != len(got)+3 {
		t.Fatalf("timeline holds %d events, want the log's %d (%d compile + 3 batch)", len(adapt), len(labels), len(got))
	}
	next := 0 // index of the next compile decision to meet on the timeline
	for i, e := range adapt {
		if e.Kind != "adapt" || e.Label != labels[i] || (i > 0 && e.AtNS < adapt[i-1].AtNS) {
			t.Fatalf("timeline event %d = %+v, want kind adapt, label %q, in time order", i, e, labels[i])
		}
		if next < len(got) && e.Label == "contc "+got[next].String() {
			next++
		}
	}
	if next != len(got) {
		t.Fatalf("timeline carries %d of %d compile decisions in order: %+v", next, len(got), adapt)
	}
	if ob := s.Snapshot().Observe; ob.AdaptEvents != int64(len(labels)) || ob.DroppedEvents != 0 {
		t.Fatalf("observe snapshot = %+v, want %d adapt events and none dropped", ob, len(labels))
	}
}

// TestDecisionLogWithoutObserve: the log does not depend on Observe.
// CompileDecisions still reads it; the trace export stays empty.
func TestDecisionLogWithoutObserve(t *testing.T) {
	s, tn := decisionServer(t, false)
	promoteAndDemote(t, s, tn)
	if got := s.CompileDecisions(); len(got) < 2 || got[0].Kind != contc.KindPromote {
		t.Fatalf("CompileDecisions with Observe off = %+v, want the promotion and demotion", got)
	}
	if d := s.TraceDump(); len(d.Adapt) != 0 || len(d.Flows) != 0 {
		t.Fatalf("TraceDump with Observe off = %+v, want empty", d)
	}
	if ob := s.Snapshot().Observe; ob != (ObserveSnapshot{}) {
		t.Fatalf("observe snapshot with Observe off = %+v, want zero", ob)
	}
}

// TestDecisionLogBounded: after N+k decisions the log holds the last N,
// the observe snapshot counts N+k appended and k overwritten, and a
// compile record ages out of CompileDecisions like any other.
func TestDecisionLogBounded(t *testing.T) {
	s, _ := decisionServer(t, true)
	const k = 5
	s.comp.record(contc.Decision{Kind: contc.KindPromote, Tenant: "dt", Key: 7, Reason: "test"})
	if got := s.CompileDecisions(); len(got) != 1 || got[0].Seq != 1 || got[0].Key != 7 {
		t.Fatalf("CompileDecisions = %+v, want the one promotion at seq 1", got)
	}
	for i := 1; i < decisionLogSize+k; i++ {
		s.decide(i%2, 0, "d%d", i)
	}
	recs := s.decisions.records()
	if len(recs) != decisionLogSize {
		t.Fatalf("log holds %d records, want %d", len(recs), decisionLogSize)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("d%d", k+i); r.label != want || r.seq != int64(k+i+1) {
			t.Fatalf("record %d = seq %d %q, want seq %d %q", i, r.seq, r.label, k+i+1, want)
		}
	}
	if got := s.CompileDecisions(); got != nil {
		t.Fatalf("CompileDecisions = %+v, want the overwritten promotion gone", got)
	}
	if n := len(s.TraceDump().Adapt); n != decisionLogSize {
		t.Fatalf("timeline holds %d events, want %d", n, decisionLogSize)
	}
	if ob := s.Snapshot().Observe; ob.AdaptEvents != decisionLogSize+k || ob.DroppedEvents != k {
		t.Fatalf("observe snapshot = %+v, want %d adapt events, %d dropped", ob, decisionLogSize+k, k)
	}
}

// TestDecisionLogCountsDropped pins the cap's edge: a log filled to
// exactly its size drops nothing, and each append past it overwrites
// one record and counts one drop while the log stays at its size.
func TestDecisionLogCountsDropped(t *testing.T) {
	s, _ := decisionServer(t, true)
	for i := 0; i < decisionLogSize; i++ {
		s.decide(0, 0, "d%d", i)
	}
	if ob := s.Snapshot().Observe; ob.AdaptEvents != decisionLogSize || ob.DroppedEvents != 0 {
		t.Fatalf("full log: observe snapshot = %+v, want %d adapt events, none dropped", ob, decisionLogSize)
	}
	for k := 1; k <= 3; k++ {
		s.decide(0, 0, "over%d", k)
		if n := len(s.decisions.records()); n != decisionLogSize {
			t.Fatalf("after %d overwrites the log holds %d records, want %d", k, n, decisionLogSize)
		}
		if ob := s.Snapshot().Observe; ob.AdaptEvents != int64(decisionLogSize+k) || ob.DroppedEvents != int64(k) {
			t.Fatalf("after %d overwrites: observe snapshot = %+v, want %d adapt events, %d dropped", k, ob, decisionLogSize+k, k)
		}
	}
}

// TestDecisionLogConcurrentDecideAndRead has many deciders appending
// while readers export the log: every export is in append order, and
// every append is counted once.
func TestDecisionLogConcurrentDecideAndRead(t *testing.T) {
	s, _ := decisionServer(t, true)
	const deciders, per = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < deciders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%100 == 0 {
					s.comp.record(contc.Decision{Kind: contc.KindPlan, Tenant: "dt", Stage: fmt.Sprint(w), Reason: "test"})
				} else {
					s.decide(w, 0, "d%d.%d", w, i)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	read := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			adapt := s.TraceDump().Adapt
			for i := 1; i < len(adapt); i++ {
				if adapt[i].AtNS < adapt[i-1].AtNS {
					read <- fmt.Errorf("timeline out of time order at %d: %+v", i, adapt[i-1:i+1])
					return
				}
			}
			comp := s.CompileDecisions()
			for i := 1; i < len(comp); i++ {
				if comp[i].Seq <= comp[i-1].Seq {
					read <- fmt.Errorf("compile decisions out of log order at %d", i)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if ob := s.Snapshot().Observe; ob.AdaptEvents != deciders*per || ob.DroppedEvents != 0 {
		t.Fatalf("observe snapshot = %+v, want %d adapt events", ob, deciders*per)
	}
	if n := len(s.CompileDecisions()); n != deciders*per/100 {
		t.Fatalf("%d compile decisions, want %d", n, deciders*per/100)
	}
}
