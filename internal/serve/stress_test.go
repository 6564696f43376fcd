package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/stats"
)

// TestStressSubmitStealClose races every moving part at once:
// concurrent SubmitFunc producers, the stealing rebalancer on a hot
// control-loop period, and a Close that lands mid-traffic. Every
// request lands on one of the four shards, so the rebalancer sees an
// imbalance of 4 against the system load controller's threshold of 2
// and steals. The invariant under all of it: every submitted request
// resolves exactly once — accepted jobs complete or shed, refused ones
// return their error and never fire — nothing is lost and nothing
// fires twice. Run with -race (CI does).
func TestStressSubmitStealClose(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	const shards = 4
	s := New(sys, Config{
		Shards: shards, QueueDepth: 128, Batch: 4, InflightBatches: 2,
		Adapt: AdaptConfig{
			Enabled:        true,
			BatchMax:       32,
			RebalanceEvery: 100 * time.Microsecond, // steal aggressively
			LatencyBudget:  2 * time.Millisecond,
		},
	})
	tn, err := s.RegisterTenant(TenantConfig{
		Name:    "stress",
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Key, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The keys all route to one shard, as SameShardScenario picks them.
	// So few keys for rounds of 32 submits force same-key collisions in
	// the queue, exercising the sibling check in the stealer under race,
	// while leaving singleton keys it may move.
	var keys []uint64
	target := shardIndex(tn.hash, 0, shards)
	for k := uint64(0); len(keys) < 32; k++ {
		if shardIndex(tn.hash, k, shards) == target {
			keys = append(keys, k)
		}
	}

	const (
		clients = 6
		burst   = 32
	)
	var submitted, resolved, doubleFired, refused, overloaded atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(c + 1))
			// Submitters run until the server has closed, so Close lands
			// mid-traffic however slowly the stealer gets going.
			for !stop.Load() {
				for i := 0; i < burst; i++ {
					req := Request{
						Key:      keys[rng.Uint64()%uint64(len(keys))],
						Priority: int(rng.Uint64() % 3),
					}
					fired := new(atomic.Int32)
					once := func() {
						if fired.Add(1) == 1 {
							resolved.Add(1)
						} else {
							doubleFired.Add(1)
						}
					}
					submitted.Add(1)
					if err := tn.SubmitFunc(req, func(Result) { once() }); err != nil {
						refused.Add(1)
						if errors.Is(err, ErrOverload) {
							overloaded.Add(1)
						}
						once()
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(c)
	}
	// Let the rebalancer steal before the server closes under the
	// still-running submitters.
	for deadline := time.Now().Add(10 * time.Second); s.AdaptStats().Steals == 0; {
		if time.Now().After(deadline) {
			t.Error("rebalancer never stole from the hot shard")
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Close while the submitters are still running: late submits must
	// be refused, earlier ones must drain.
	time.Sleep(3 * time.Millisecond)
	s.Close()
	stop.Store(true)
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for resolved.Load()+doubleFired.Load() < submitted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("lost jobs: submitted %d, resolved %d", submitted.Load(), resolved.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if doubleFired.Load() != 0 {
		t.Fatalf("%d done callbacks fired more than once", doubleFired.Load())
	}
	if resolved.Load() != submitted.Load() {
		t.Fatalf("resolved %d of %d submitted", resolved.Load(), submitted.Load())
	}
	// Quiescent accounting must balance too: everything admitted either
	// completed or shed, and nothing is still in flight.
	st := s.Stats()
	if st.Accepted != st.Done+st.Shed {
		t.Errorf("accepted %d != done %d + shed %d at quiescence", st.Accepted, st.Done, st.Shed)
	}
	if st.InFlight() != 0 {
		t.Errorf("in-flight %d at quiescence", st.InFlight())
	}
	// Every refused submission returned its error (backpressure
	// rejections count in Stats.Rejected; post-Close refusals
	// deliberately do not), and the rest were admitted.
	if st.Accepted+refused.Load() != submitted.Load() {
		t.Errorf("accepted %d + refused %d != submitted %d", st.Accepted, refused.Load(), submitted.Load())
	}
	if st.Rejected != overloaded.Load() {
		t.Errorf("stats count %d rejections, submitters saw %d ErrOverload", st.Rejected, overloaded.Load())
	}
}

// registrySum sums the registry counters named serve.tenant.<name>.<what>.
func registrySum(rep monitor.Report, what string) (n int64) {
	for name, v := range rep.Counters {
		if strings.HasPrefix(name, "serve.tenant.") && strings.HasSuffix(name, "."+what) {
			n += v
		}
	}
	return n
}

// TestStatsSnapshotConsistency is the monitoring contract: Stats() and
// monitor.Snapshot() views taken mid-flight stay internally consistent
// (no negative in-flight, completions never outrun admissions), and at
// quiescence the books balance exactly — offered == accepted + rejected
// and accepted == done + shed + in-flight with in-flight == 0 — with
// the Stats fields agreeing with the sums of the per-tenant counters and
// per-shard batch-size histograms they read.
func TestStatsSnapshotConsistency(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 4, QueueDepth: 512, Batch: 8,
		Adapt: AdaptConfig{Enabled: true, RebalanceEvery: 500 * time.Microsecond},
	})
	tn, err := s.RegisterTenant(TenantConfig{
		Name: "acct",
		Handler: func(_ *Ctx, req Request) (any, error) {
			time.Sleep(50 * time.Microsecond)
			return req.Key, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	checks := make(chan string, 1)
	go func() {
		// Sample both views continuously while traffic flows.
		for {
			select {
			case <-stop:
				close(checks)
				return
			default:
			}
			st := s.Stats()
			if st.InFlight() < 0 {
				select {
				case checks <- "negative in-flight mid-run":
				default:
				}
			}
			if st.Done+st.Shed > st.Accepted {
				select {
				case checks <- "completions outran admissions":
				default:
				}
			}
			snap := sys.Mon.Snapshot()
			// The snapshot is taken after Stats, so its monotone counters
			// can only be >= the Stats view of the same instrument.
			if registrySum(snap, "accepted") < st.Accepted {
				select {
				case checks <- "snapshot accepted ran behind Stats":
				default:
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var offered int64
	for r := 0; r < 40; r++ {
		for i := 0; i < 25; i++ {
			offered++
			// Admitted jobs resolve in the Close drain below.
			if _, err := tn.Submit(Request{Key: uint64(r*25 + i)}); err != nil && !errors.Is(err, ErrOverload) {
				t.Error(err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.Close()
	close(stop)
	for msg := range checks {
		t.Error(msg)
	}

	st := s.Stats()
	snap := sys.Mon.Snapshot()
	if st.Accepted+st.Rejected != offered {
		t.Errorf("offered %d != accepted %d + rejected %d", offered, st.Accepted, st.Rejected)
	}
	if st.Accepted != st.Done+st.Shed {
		t.Errorf("accepted %d != done %d + shed %d at quiescence", st.Accepted, st.Done, st.Shed)
	}
	if st.InFlight() != 0 {
		t.Errorf("in-flight %d at quiescence", st.InFlight())
	}
	var batches int64
	for name, h := range snap.Hists {
		if strings.HasSuffix(name, ".batch_size") {
			batches += h.Total()
		}
	}
	failed := registrySum(snap, "failed")
	for name, c := range map[string]struct{ got, want int64 }{
		"Σ serve.tenant.*.accepted":          {registrySum(snap, "accepted"), st.Accepted},
		"Σ serve.tenant.*.rejected":          {registrySum(snap, "rejected"), st.Rejected},
		"Σ serve.tenant.*.shed":              {registrySum(snap, "shed"), st.Shed},
		"Σ serve.tenant.*.{done,failed}":     {registrySum(snap, "done") + failed, st.Done},
		"Σ serve.tenant.*.failed":            {failed, st.Failed},
		"Σ serve.shardNN.batch_size (total)": {batches, st.Batches},
		"serve.adapt.steals":                 {snap.Counters["serve.adapt.steals"], st.Steals},
	} {
		if c.got != c.want {
			t.Errorf("snapshot %s = %d, Stats reports %d", name, c.got, c.want)
		}
	}
}

// TestStatsSumTenants: every Stats job total is the sum of the tenant
// rows of Snapshot, Done counts completed and failed handlers alike,
// and Flow.FanOut is the sum of the stages' fan-out counts. Two tenants
// share one 1-deep shard: one holds the batch SGT so that an expired
// job queues (and sheds) and later submissions are refused, the other's
// handler fails, and a Map pipeline fans out.
func TestStatsSumTenants(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{Shards: 1, QueueDepth: 1, Batch: 1, InflightBatches: 1})
	defer s.Close()
	started, gate := make(chan struct{}), make(chan struct{})
	good, err := s.RegisterTenant(TenantConfig{
		Name: "good",
		Handler: func(_ *Ctx, req Request) (any, error) {
			if req.Payload == "block" {
				close(started)
				<-gate
			}
			return req.Payload, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.RegisterTenant(TenantConfig{
		Name:    "bad",
		Handler: func(*Ctx, Request) (any, error) { return nil, errors.New("bad handler") },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := good.NewPipeline("fan", Stage{Name: "each", Map: true,
		Handler: func(_ *Ctx, req Request) (any, error) { return req.Payload, nil }})
	if err != nil {
		t.Fatal(err)
	}

	blocker, err := good.Submit(Request{Payload: "block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	late, err := good.Submit(Request{Payload: "late", Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tenant{good, bad} {
		if _, err := tn.Submit(Request{}); !errors.Is(err, ErrOverload) {
			t.Fatalf("%s: submit to a full 1-deep queue = %v, want ErrOverload", tn.Name(), err)
		}
	}
	close(gate)
	if r := blocker.Wait(); r.Status != StatusOK {
		t.Fatalf("blocker = %+v", r)
	}
	if r := late.Wait(); r.Status != StatusShed {
		t.Fatalf("expired job = %+v, want shed", r)
	}
	for i := 0; i < 3; i++ {
		tk, err := bad.Submit(Request{Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Status != StatusFailed {
			t.Fatalf("failing handler = %+v", r)
		}
	}
	tk, err := good.SubmitFlow(p, Request{Payload: []any{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Status != StatusOK {
		t.Fatalf("flow = %+v", r)
	}
	s.Close()

	snap := s.Snapshot()
	st := snap.Stats
	var sum TenantSnapshot
	for _, row := range snap.Tenants {
		sum.Accepted += row.Accepted
		sum.Rejected += row.Rejected
		sum.Shed += row.Shed
		sum.Done += row.Done
		sum.Failed += row.Failed
	}
	if len(snap.Tenants) != 2 {
		t.Fatalf("%d tenant rows, want 2", len(snap.Tenants))
	}
	for name, c := range map[string]struct{ got, want int64 }{
		"Accepted": {st.Accepted, sum.Accepted},
		"Rejected": {st.Rejected, sum.Rejected},
		"Shed":     {st.Shed, sum.Shed},
		"Done":     {st.Done, sum.Done + sum.Failed},
		"Failed":   {st.Failed, sum.Failed},
	} {
		if c.got != c.want {
			t.Errorf("Stats.%s = %d, tenant rows sum to %d", name, c.got, c.want)
		}
	}
	// blocker, late, three failures and the flow's one inline-fan job.
	if got := [5]int64{st.Accepted, st.Rejected, st.Shed, st.Done, st.Failed}; got != [5]int64{6, 2, 1, 5, 3} {
		t.Errorf("accepted/rejected/shed/done/failed = %v, want [6 2 1 5 3]", got)
	}
	if st.InFlight() != 0 {
		t.Errorf("in-flight %d at quiescence", st.InFlight())
	}
	var fan int64
	for _, ss := range p.StageStats() {
		fan += ss.FanOut
	}
	if st.Flow.FanOut != fan || fan != 3 {
		t.Errorf("Flow.FanOut = %d, stages sum to %d, want 3", st.Flow.FanOut, fan)
	}
}
