package serve

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hints"
	"repro/internal/litlx"
)

// testCompileConfig is a controller configuration for deterministic
// tests: the control loop never fires on its own (Every is an hour), so
// tests drive the controller's pass by hand, like the rebalance tests.
func testCompileConfig() CompileConfig {
	return CompileConfig{
		Enabled:    true,
		Every:      time.Hour,
		MinSamples: 50,
		HotKeyMin:  16,
		DecayEvery: 1,
	}
}

// okElem synthesizes one fan-out element result with the given service
// time, for feeding observeElem without running real traffic.
func okElem(us int) Result {
	return Result{Status: StatusOK, Total: time.Duration(us) * time.Microsecond}
}

func newCompileServer(t *testing.T, cfg CompileConfig) (*litlx.System, *Server, *Tenant) {
	t.Helper()
	sys := newTestSystem(t)
	s := New(sys, Config{Shards: 4, Compile: cfg})
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "ct",
		Handler: func(_ *Ctx, req Request) (any, error) { return "slow", nil },
		Specialize: func(key uint64) Handler {
			return func(_ *Ctx, req Request) (any, error) { return "fast", nil }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, s, tn
}

// TestCompileDisabledIsInert pins the disabled-path contract: with a
// zero Config.Compile the server carries no sketch, no fast table, no
// controller — the hot paths see one nil check and nothing else.
func TestCompileDisabledIsInert(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "plain",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tn.sketch != nil || tn.fast != nil {
		t.Fatal("disabled server attached compile state to tenant")
	}
	if s.HintsDB() != nil || s.CompileDecisions() != nil {
		t.Fatal("disabled server exposes compile controller state")
	}
	if len(s.controllers) != 0 || s.quit != nil {
		t.Fatalf("disabled server installed %d controllers (loop started: %v)", len(s.controllers), s.quit != nil)
	}
	s.step(time.Now().Add(time.Hour)) // nothing installed: a no-op, not a panic
	for i := 0; i < 64; i++ {
		tk, err := tn.Submit(Request{Key: uint64(i % 4)})
		if err != nil {
			t.Fatal(err)
		}
		if res := tk.Wait(); res.Status != StatusOK {
			t.Fatalf("status %v", res.Status)
		}
	}
	// With Adapt and Compile both off the control plane does not exist:
	// AdaptStats is zero apart from the per-shard slices, and no
	// control-plane instrument was ever resolved.
	as := s.AdaptStats()
	as.BatchSizes, as.Pending = nil, nil
	if !reflect.DeepEqual(as, AdaptStats{}) {
		t.Fatalf("disabled server reports control-plane state: %+v", as)
	}
	reg := sys.Mon.Snapshot()
	names := reg.Names() // counters; the control plane's one EWMA is checked by name
	if _, ok := reg.EWMAs["serve.adapt.imbalance"]; ok {
		names = append(names, "serve.adapt.imbalance")
	}
	for _, name := range names {
		if strings.HasPrefix(name, "serve.adapt.") || strings.HasPrefix(name, "serve.contc.") {
			t.Errorf("disabled server resolved %s", name)
		}
	}
}

// TestCompileSketchFedOnAdmission verifies both plain submission
// surfaces (Submit, SubmitFunc) fold keys into the tenant sketch.
func TestCompileSketchFedOnAdmission(t *testing.T) {
	sys, s, tn := newCompileServer(t, testCompileConfig())
	defer sys.Close()
	defer s.Close()
	for i := 0; i < 32; i++ {
		tk, err := tn.Submit(Request{Key: 99})
		if err != nil {
			t.Fatal(err)
		}
		tk.Wait()
	}
	var wg sync.WaitGroup
	wg.Add(16)
	for i := 0; i < 16; i++ {
		if err := tn.SubmitFunc(Request{Key: 99}, func(Result) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if est := tn.sketch.Estimate(99); est < 48 {
		t.Fatalf("sketch estimate = %d, want >= 48 (both submit paths)", est)
	}
}

// TestCompileHotKeyPromoteDemote walks one key through the full
// lifecycle: sketched on admission, promoted to a specialized fast-path
// slot by the controller, served from the slot at dispatch, then
// demoted once the decaying estimate cools.
func TestCompileHotKeyPromoteDemote(t *testing.T) {
	sys, s, tn := newCompileServer(t, testCompileConfig())
	defer sys.Close()
	defer s.Close()

	submit := func(key uint64) string {
		tk, err := tn.Submit(Request{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		res := tk.Wait()
		if res.Status != StatusOK {
			t.Fatalf("status %v", res.Status)
		}
		return res.Value.(string)
	}
	for i := 0; i < 40; i++ {
		if got := submit(42); got != "slow" {
			t.Fatalf("pre-promotion handler returned %q", got)
		}
	}
	s.comp.once(time.Now())
	if as := s.AdaptStats(); as.HotPromotions < 1 {
		t.Fatalf("no promotion after hot traffic: %+v", as)
	}
	if got := submit(42); got != "fast" {
		t.Fatalf("post-promotion handler returned %q, want specialized", got)
	}
	if got := submit(7); got != "slow" {
		t.Fatalf("cold key took the fast path: %q", got)
	}
	if s.AdaptStats().FastPathHits < 1 {
		t.Fatal("fast-path hit not counted")
	}
	// DecayEvery=1 halves the sketch every tick; the estimate must fall
	// below HotKeyMin/2 and demote within a handful of ticks.
	demoted := false
	for i := 0; i < 20 && !demoted; i++ {
		s.comp.once(time.Now())
		for _, d := range s.CompileDecisions() {
			if d.Kind == "demote" && d.Key == 42 {
				demoted = true
			}
		}
	}
	if !demoted {
		t.Fatal("hot key never demoted after decay")
	}
	if got := submit(42); got != "slow" {
		t.Fatalf("post-demotion handler returned %q, want general", got)
	}
	if as := s.AdaptStats(); as.HotDemotions < 1 {
		t.Fatalf("demotion not counted: %+v", as)
	}
}

// TestCompileScatterPlanRoutesFanout installs a learned scatter plan
// from synthetic cost observations and verifies a real fan-out is
// placed by it.
func TestCompileScatterPlanRoutesFanout(t *testing.T) {
	sys, s, tn := newCompileServer(t, testCompileConfig())
	defer sys.Close()
	defer s.Close()
	p, err := tn.NewPipeline("fan",
		Stage{Name: "map", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "join", Handler: func(_ *Ctx, req Request) (any, error) { return len(req.Payload.([]any)), nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := p.stages[0]
	if st.costUS == nil {
		t.Fatal("Map stage not instrumented on a compile-enabled server")
	}
	st.lastFan.Store(16)
	for i := 0; i < 200; i++ {
		st.observeElem(okElem(100))
	}
	s.comp.once(time.Now())
	if st.scatter.Load() == nil {
		t.Fatal("no scatter plan installed")
	}
	if as := s.AdaptStats(); as.CompilePlans < 1 {
		t.Fatalf("plan not counted: %+v", as)
	}
	payload := make([]any, 16)
	for i := range payload {
		payload[i] = uint64(i)
	}
	tk, err := tn.SubmitFlow(p, Request{Key: 5, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Status != StatusOK || res.Value.(int) != 16 {
		t.Fatalf("flow result = %+v", res)
	}
	if as := s.AdaptStats(); as.ScatteredElems < 16 {
		t.Fatalf("fan-out not placed by the plan: %+v", as)
	}
}

// TestCompileInlineFanFeedsCostEstimator: an instrumented Map stage
// with no routing derivations runs as one inline-fan job until a plan is
// installed, and that job still times every element for the planner:
// costN grows by the fan width. Once a plan is installed, the stage
// takes the element path, one scattered job per element.
func TestCompileInlineFanFeedsCostEstimator(t *testing.T) {
	sys, s, tn := newCompileServer(t, testCompileConfig())
	defer sys.Close()
	defer s.Close()
	p, err := tn.NewPipeline("fan",
		Stage{Name: "map", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }},
		Stage{Name: "join", Handler: func(_ *Ctx, req Request) (any, error) { return len(req.Payload.([]any)), nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := p.stages[0]
	const width = 16
	flow := func() (jobs int64) {
		t.Helper()
		before := s.Stats().Accepted
		tk, err := tn.SubmitFlow(p, Request{Key: 5, Payload: parts(width)})
		if err != nil {
			t.Fatal(err)
		}
		if res := tk.Wait(); res.Status != StatusOK || res.Value.(int) != width {
			t.Fatalf("flow result = %+v", res)
		}
		return s.Stats().Accepted - before
	}
	if jobs := flow(); jobs != 2 {
		t.Errorf("unplanned flow admitted %d jobs, want 2 (the inline fan, the join)", jobs)
	}
	if n := st.costN.Value(); n != width {
		t.Errorf("inline fan accrued %d element observations, want %d", n, width)
	}
	if fan := st.lastFan.Load(); fan != width {
		t.Errorf("planner saw a fan of %d, want %d", fan, width)
	}
	for i := 0; i < 200; i++ {
		st.observeElem(okElem(100))
	}
	s.comp.once(time.Now())
	if st.scatter.Load() == nil {
		t.Fatal("no scatter plan installed")
	}
	if jobs := flow(); jobs != width+1 {
		t.Errorf("planned flow admitted %d jobs, want %d (an element job each, the join)", jobs, width+1)
	}
	if as := s.AdaptStats(); as.ScatteredElems != width {
		t.Errorf("scattered %d elements, want %d", as.ScatteredElems, width)
	}
}

// TestCompilePolicySwitchDeterministic is the drift test: a uniform
// cost regime plans static-block, a later heavy-tailed regime forces a
// re-plan onto a dynamic strategy, and the whole decision sequence
// replays identically across two servers.
func TestCompilePolicySwitchDeterministic(t *testing.T) {
	run := func() []string {
		sys := newTestSystem(t)
		defer sys.Close()
		s := New(sys, Config{Shards: 4, Compile: testCompileConfig()})
		defer s.Close()
		tn, err := s.RegisterTenant(TenantConfig{
			Name:    "ct",
			Handler: func(_ *Ctx, req Request) (any, error) { return nil, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := tn.NewPipeline("fan",
			Stage{Name: "map", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatal(err)
		}
		st := p.stages[0]
		st.lastFan.Store(64)
		// Phase one: uniform 100us elements -> cv ~0 -> static-block.
		for i := 0; i < 200; i++ {
			st.observeElem(okElem(100))
		}
		s.comp.once(time.Now())
		// Phase two: heavy-tailed (one 3000us element per nine 20us ones)
		// -> the EWMA cv blows past the 0.5 drift bound -> re-plan.
		for i := 0; i < 400; i++ {
			us := 20
			if i%10 == 0 {
				us = 3000
			}
			st.observeElem(okElem(us))
		}
		s.comp.once(time.Now())
		var out []string
		for _, d := range s.CompileDecisions() {
			out = append(out, fmt.Sprintf("%s %s/%s/%s %s", d.Kind, d.Tenant, d.Pipeline, d.Stage, d.Strategy))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic decisions:\n%v\nvs\n%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != 2 {
		t.Fatalf("decisions = %v, want plan then replan", a)
	}
	if a[0] != "plan ct/fan/map static-block" {
		t.Fatalf("uniform regime planned %q, want static-block", a[0])
	}
	if d := s0kind(a[1]); d != "replan" {
		t.Fatalf("drift did not re-plan: %v", a)
	}
	if a[1] == "replan ct/fan/map static-block" {
		t.Fatalf("heavy-tailed regime kept static-block: %v", a)
	}
}

func s0kind(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

// TestCompileShiftScenarioDeterministic plays the seeded regime-change
// script through real admission twice and requires the controller's
// promotion decisions to replay identically — the deterministic
// policy-switch contract end to end, sketch fed by PlayScenario.
func TestCompileShiftScenarioDeterministic(t *testing.T) {
	const keys = 64
	sc := ShiftScenario(11, 1, 20, 40, keys, 0.5)
	sc2 := ShiftScenario(11, 1, 20, 40, keys, 0.5)
	if len(sc.Arrivals) != len(sc2.Arrivals) {
		t.Fatal("ShiftScenario not deterministic")
	}
	half := sc.Ticks / 2
	for i, a := range sc.Arrivals {
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", sc2.Arrivals[i]) {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a, sc2.Arrivals[i])
		}
		if a.Tick < half && a.Key >= keys {
			t.Fatalf("phase-one arrival has phase-two key: %+v", a)
		}
		if a.Tick >= half && a.Key < keys {
			t.Fatalf("phase-two arrival has phase-one key: %+v", a)
		}
	}
	run := func() []string {
		sys := newTestSystem(t)
		defer sys.Close()
		cfg := testCompileConfig()
		cfg.DecayEvery = 16
		s := New(sys, Config{Shards: 4, Compile: cfg})
		defer s.Close()
		tn, err := s.RegisterTenant(TenantConfig{
			Name:    "ct",
			Handler: func(_ *Ctx, req Request) (any, error) { return nil, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		PlayScenario(s, sc, PlayConfig{Tenants: []*Tenant{tn}, Tick: 100 * time.Microsecond})
		s.comp.once(time.Now())
		var out []string
		for _, d := range s.CompileDecisions() {
			out = append(out, fmt.Sprintf("%s %s key=%d", d.Kind, d.Tenant, d.Key))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic decisions:\n%v\nvs\n%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	// Both regime hot keys (0 and keys) crossed HotKeyMin; both promote.
	want := map[uint64]bool{0: false, keys: false}
	for _, d := range a {
		for k := range want {
			if d == fmt.Sprintf("promote ct key=%d", k) {
				want[k] = true
			}
		}
	}
	for k, ok := range want {
		if !ok {
			t.Fatalf("hot key %d never promoted: %v", k, a)
		}
	}
}

// TestCompileWarmStartFromHints exports one server's learned policy
// through the hints script round trip and verifies a fresh server fed
// the parsed DB re-installs the plan and hot set before any traffic.
func TestCompileWarmStartFromHints(t *testing.T) {
	sys, s, tn := newCompileServer(t, testCompileConfig())
	p, err := tn.NewPipeline("fan",
		Stage{Name: "map", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	st := p.stages[0]
	st.lastFan.Store(32)
	for i := 0; i < 100; i++ {
		st.observeElem(okElem(80))
	}
	for i := 0; i < 40; i++ {
		tk, err := tn.Submit(Request{Key: 42})
		if err != nil {
			t.Fatal(err)
		}
		tk.Wait()
	}
	s.comp.once(time.Now())
	if as := s.AdaptStats(); as.CompilePlans < 1 || as.HotPromotions < 1 {
		t.Fatalf("nothing learned to persist: %+v", as)
	}
	script, err := s.HintsDB().ScriptString()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	sys.Close()

	db := hints.NewDB()
	if err := hints.ParseScriptString(script, db); err != nil {
		t.Fatalf("persisted script does not re-parse: %v\n%s", err, script)
	}
	cfg := testCompileConfig()
	cfg.DB = db
	sys2, s2, tn2 := newCompileServer(t, cfg)
	defer sys2.Close()
	defer s2.Close()
	if _, err := tn2.NewPipeline("fan",
		Stage{Name: "map", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	s2.comp.once(time.Now()) // zero traffic, zero observations: warm start only
	var warmPlan, warmPromote bool
	for _, d := range s2.CompileDecisions() {
		switch d.Kind {
		case "warm-plan":
			warmPlan = true
		case "warm-promote":
			if d.Key == 42 {
				warmPromote = true
			}
		}
	}
	if !warmPlan || !warmPromote {
		t.Fatalf("warm start incomplete (plan=%v promote=%v): %+v",
			warmPlan, warmPromote, s2.CompileDecisions())
	}
	tk, err := tn2.Submit(Request{Key: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Value.(string) != "fast" {
		t.Fatalf("warm-restored key not on fast path: %v", res.Value)
	}
}

// TestCompileRaceTrafficAndClose exercises the controller at a tight
// cadence against concurrent submissions, flows, and shutdown — the
// schedule the -race CI matrix repeats.
func TestCompileRaceTrafficAndClose(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 4, Compile: CompileConfig{
		Enabled: true, Every: 200 * time.Microsecond,
		MinSamples: 8, HotKeyMin: 4, DecayEvery: 2,
	}})
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "ct",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
		Specialize: func(key uint64) Handler {
			return func(_ *Ctx, req Request) (any, error) { return key, nil }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tn.NewPipeline("fan",
		Stage{Name: "map", Map: true, Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := uint64(i % 3) // heavily repeated: drives promotions
				if tk, err := tn.Submit(Request{Key: key}); err == nil {
					tk.Wait()
				}
				if i%16 == 0 {
					payload := []any{uint64(i), uint64(i + 1), uint64(i + 2), uint64(i + 3)}
					if tk, err := tn.SubmitFlow(p, Request{Key: key, Payload: payload}); err == nil {
						tk.Wait()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	// The controller ran concurrently; the decision log must be readable
	// after Close and the stats coherent.
	_ = s.CompileDecisions()
	_ = s.AdaptStats()
}
