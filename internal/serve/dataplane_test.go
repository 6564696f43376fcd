package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/litlx"
	"repro/internal/mem"
)

// newLocaleSystem boots a system with one SGT pool per locale for
// data-plane tests that care which locale work lands on.
func newLocaleSystem(t *testing.T, locales int) *litlx.System {
	t.Helper()
	sys, err := litlx.New(litlx.Config{Locales: locales, WorkersPerLocale: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWorkingSetRoutesToHomeLocale(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	s := New(sys, Config{Shards: 4, Data: DataConfig{LocalityRoute: true}})
	defer s.Close()

	var mu sync.Mutex
	locales := make(map[mem.Locale]int)
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(ctx *Ctx, _ Request) (any, error) {
			mu.Lock()
			locales[ctx.Locale()]++
			mu.Unlock()
			return nil, nil
		},
		Objects: []DataObject{{Size: 256, Home: 1}, {Size: 256, Home: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := tn.Objects()
	// Every key, every time: a working set homed at locale 1 must land
	// at a locale-1 shard, regardless of where the hash would go.
	var tickets []*Ticket
	for k := uint64(0); k < 64; k++ {
		tk, err := tn.Submit(Request{Key: k, WorkingSet: []mem.ObjID{objs[0]}})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if r := tk.Wait(); r.Status != StatusOK {
			t.Fatalf("request failed: %+v", r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if locales[0] != 0 || locales[1] != 64 {
		t.Fatalf("locality routing scattered a locale-1 working set: per-locale counts %v", locales)
	}
}

func TestMajorityHomeTieBreaksTowardFirstObject(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	s := New(sys, Config{Shards: 2, Data: DataConfig{LocalityRoute: true}})
	defer s.Close()

	var mu sync.Mutex
	locales := make(map[mem.Locale]int)
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(ctx *Ctx, _ Request) (any, error) {
			mu.Lock()
			locales[ctx.Locale()]++
			mu.Unlock()
			return nil, nil
		},
		Objects: []DataObject{{Size: 64, Home: 1}, {Size: 64, Home: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := tn.Objects()
	// A 1-1 split between locales 1 and 0: the first object's home wins,
	// so [obj@1, obj@0] routes to locale 1 deterministically.
	for k := uint64(0); k < 32; k++ {
		tk, err := tn.Submit(Request{Key: k, WorkingSet: []mem.ObjID{objs[0], objs[1]}})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Status != StatusOK {
			t.Fatalf("request failed: %+v", r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if locales[0] != 0 || locales[1] != 32 {
		t.Fatalf("tie did not break toward the first object's home: per-locale counts %v", locales)
	}
}

func TestHashRoutingWithoutWorkingSetOrConfig(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	// Data plane off: a declared working set must not move the request
	// off its hash shard (it is still recorded and priced, though).
	s := New(sys, Config{Shards: 4})
	defer s.Close()
	var mu sync.Mutex
	shards := make(map[int]int)
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "t",
		Handler: func(ctx *Ctx, _ Request) (any, error) {
			mu.Lock()
			shards[ctx.Shard()]++
			mu.Unlock()
			return nil, nil
		},
		Objects: []DataObject{{Size: 64, Home: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := tn.Objects()[0]
	for k := uint64(0); k < 128; k++ {
		want := shardIndex(tn.hash, k, 4)
		tk, err := tn.Submit(Request{Key: k, WorkingSet: []mem.ObjID{obj}})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Status != StatusOK {
			t.Fatalf("request failed: %+v", r)
		}
		mu.Lock()
		if shards[want] == 0 {
			mu.Unlock()
			t.Fatalf("key %d did not run on its hash shard %d", k, want)
		}
		mu.Unlock()
	}
	st := sys.Space.Stats()
	if st.Reads != 128 {
		t.Errorf("declared working set recorded %d reads, want 128", st.Reads)
	}
}

func TestStageBatchMakesAccessesLocal(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 2, Batch: 16,
		Data: DataConfig{LocalityRoute: true, Stage: true},
	})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, _ Request) (any, error) { return nil, nil },
		// Object 0 homed at 0 routes the requests to locale 0; object 1
		// homed at 1 is the one staging must pull across.
		Objects: []DataObject{{Size: 512, Home: 0}, {Size: 512, Home: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := tn.Objects()
	ws := []mem.ObjID{objs[0], objs[1]}
	var tickets []*Ticket
	for k := uint64(0); k < 64; k++ {
		tk, err := tn.Submit(Request{Key: k, WorkingSet: ws})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if r := tk.Wait(); r.Status != StatusOK {
			t.Fatalf("request failed: %+v", r)
		}
	}
	if !sys.Space.HasValidReplica(objs[1], 0) {
		t.Error("staging left the remote working-set object without a locale-0 replica")
	}
	st := s.Stats()
	if st.DataStaged == 0 {
		t.Error("staging counter did not move")
	}
	// Staging replicates once and the copy persists, so the 64 jobs must
	// not have paid 64 transfers; with batches of one worst case is one
	// stage per batch, but the replica is durable — after the first
	// batch installed it, later batches find it valid.
	if st.DataStaged >= 64 {
		t.Errorf("staged %d times for 64 same-set jobs; the replica should persist across batches", st.DataStaged)
	}
	// And the recorded accesses must be overwhelmingly local: only
	// accesses racing the very first staging may count remote.
	space := sys.Space.Stats()
	if space.RemoteReads > space.Reads/4 {
		t.Errorf("staged serving still recorded %d/%d remote reads", space.RemoteReads, space.Reads)
	}
}

func TestStealJobsRespectsDataResidency(t *testing.T) {
	space := mem.NewSpace(2, nil)
	srv := &Server{space: space}
	tn := stealTenant(11, 2, true) // code resident everywhere
	tn.srv = srv
	obj := space.Alloc(0, 128) // homed at locale 0 only
	src, dst := newShard(0, 64), newShard(1, 64)
	src.locale, dst.locale = 0, 1
	for k := uint64(0); k < 8; k++ {
		src.enqueue(testJob(tn, Request{Key: k, WorkingSet: []mem.ObjID{obj}}))
	}
	if moved := stealJobsInto(src, dst, 8, &stealScratch{}); moved != 0 {
		t.Fatalf("stole %d jobs onto a locale missing their working set, want 0", moved)
	}
	// Once the object has a valid replica at the destination's locale,
	// the same jobs are fair game.
	space.Replicate(obj, 1)
	if moved := stealJobsInto(src, dst, 8, &stealScratch{}); moved != 8 {
		t.Fatalf("moved %d after replication, want 8", moved)
	}
	// A write invalidates the replica: back to unstealable.
	for k := uint64(8); k < 12; k++ {
		src.enqueue(testJob(tn, Request{Key: k, WorkingSet: []mem.ObjID{obj}}))
	}
	space.WriteAccess(0, obj, 0)
	if moved := stealJobsInto(src, dst, 8, &stealScratch{}); moved != 0 {
		t.Fatalf("stole %d jobs after invalidation, want 0", moved)
	}
}

func TestLocalityOnceMigratesAndReplicates(t *testing.T) {
	sys := newLocaleSystem(t, 4)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 4,
		Adapt: AdaptConfig{
			Enabled:        true,
			RebalanceEvery: time.Hour, // test drives the loop by hand
			Locality:       true,
		},
	})
	defer s.Close()
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t",
		Handler: func(_ *Ctx, _ Request) (any, error) { return nil, nil },
		Objects: []DataObject{{Size: 256, Home: 0}, {Size: 256, Home: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := tn.Objects()
	// Object 0: write-heavy from locale 2 — must migrate there.
	for i := 0; i < 32; i++ {
		sys.Space.WriteAccess(2, objs[0], 0)
	}
	// Object 1: read-mostly from locales 1 and 3 — must replicate there.
	for i := 0; i < 32; i++ {
		sys.Space.ReadAccess(1, objs[1], 0)
		sys.Space.ReadAccess(3, objs[1], 0)
	}
	s.localize.once(time.Now())
	st := s.AdaptStats()
	if st.Migrations == 0 {
		t.Error("write-heavy object did not migrate")
	}
	if st.Replications == 0 {
		t.Error("read-mostly object did not replicate")
	}
	if home := sys.Space.Home(objs[0]); home != 2 {
		t.Errorf("write-heavy object homed at %d after locality loop, want 2", home)
	}
	if !sys.Space.HasValidReplica(objs[1], 1) || !sys.Space.HasValidReplica(objs[1], 3) {
		t.Error("read-mostly object missing a reader replica after locality loop")
	}
}

func TestRegisterTenantObjectPlacement(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	s := New(sys, Config{Shards: 2})
	defer s.Close()
	h := func(_ *Ctx, _ Request) (any, error) { return nil, nil }
	if _, err := s.RegisterTenant(TenantConfig{
		Name: "bad", Handler: h,
		Objects: []DataObject{{Size: 64, Home: 7}},
	}); err == nil {
		t.Fatal("registration with an out-of-range object home succeeded")
	}
	if _, ok := s.Tenant("bad"); ok {
		t.Fatal("failed registration left a tenant behind")
	}
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "auto", Handler: h,
		Objects: []DataObject{
			{Size: 64, Home: AutoHome}, {Size: 64, Home: AutoHome}, {Size: 64, Home: AutoHome},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range tn.Objects() {
		if home := sys.Space.Home(id); int(home) != i%2 {
			t.Errorf("auto-homed object %d at locale %d, want %d", i, home, i%2)
		}
	}
}

// TestLocalHotScenarioEndToEnd plays the data-plane script against a
// fully engaged server — locality routing, staging, and the locality
// loop — and checks the plumbing holds together: everything resolves,
// working sets get staged, and the access mix ends up mostly local.
// (The locality-vs-hash comparison itself is exp V3.)
func TestLocalHotScenarioEndToEnd(t *testing.T) {
	sys := newLocaleSystem(t, 2)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 4, Batch: 8,
		Data: DataConfig{LocalityRoute: true, Stage: true},
		Adapt: AdaptConfig{
			Enabled:        true,
			RebalanceEvery: 500 * time.Microsecond,
			Locality:       true, // every 8*500us = 4ms
			LatencyBudget:  time.Second,
		},
	})
	defer s.Close()
	const objects, hot = 8, 2
	specs := make([]DataObject, objects)
	for i := range specs {
		if i < hot {
			specs[i] = DataObject{Size: 512, Home: 0}
		} else {
			specs[i] = DataObject{Size: 512, Home: 1}
		}
	}
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "t0",
		Handler: func(_ *Ctx, _ Request) (any, error) { return nil, nil },
		Objects: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := LocalHotScenario(5, 1, 60, 6, objects, hot, 0.7, 0.25, 512)
	rep := PlayScenario(s, sc, PlayConfig{Tenants: []*Tenant{tn}, Tick: time.Millisecond})
	if rep.Completed == 0 || rep.Completed+rep.Shed+rep.Rejected+rep.Failed != rep.Offered {
		t.Fatalf("playback lost requests: %+v", rep)
	}
	if st := s.Stats(); st.DataStaged == 0 {
		t.Error("localhot playback staged nothing")
	}
	space := sys.Space.Stats()
	if space.Reads == 0 {
		t.Fatal("no working-set reads recorded")
	}
	if frac := sys.Space.RemoteFraction(); frac > 0.5 {
		t.Errorf("engaged data plane left %.0f%% of accesses remote", 100*frac)
	}
}
