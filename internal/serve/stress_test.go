package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestStressSubmitManyStealClose races every moving part at once:
// concurrent SubmitMany bursts, the stealing rebalancer on a hot
// control-loop period, and a Close that lands mid-traffic. The
// invariant under all of it: every submitted request resolves exactly
// once — accepted jobs complete or shed, refused ones reject, nothing
// is lost and nothing fires twice. Run with -race (CI does).
func TestStressSubmitManyStealClose(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := New(sys, Config{
		Shards: 4, QueueDepth: 128, Batch: 4, InflightBatches: 2,
		Adapt: AdaptConfig{
			Enabled:        true,
			BatchMin:       1,
			BatchMax:       32,
			RebalanceEvery: 100 * time.Microsecond, // steal aggressively
			StealThreshold: 1.1,
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

	const (
		clients = 6
		rounds  = 60
		burst   = 32
	)
	var submitted, resolved, doubleFired, refused atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(c + 1))
			for r := 0; r < rounds; r++ {
				reqs := make([]Request, burst)
				for i := range reqs {
					reqs[i] = Request{
						// A narrow key space forces same-key collisions in
						// the queues, exercising the sibling check in the
						// stealer under race.
						Key:      rng.Uint64() % 64,
						Priority: int(rng.Uint64() % 3),
					}
				}
				fired := make([]atomic.Int32, burst)
				submitted.Add(burst)
				tn.SubmitManyFunc(reqs, func(i int, r Result) {
					if fired[i].Add(1) == 1 {
						if r.Status == StatusRejected {
							refused.Add(1)
						}
						resolved.Add(1)
					} else {
						doubleFired.Add(1)
					}
				})
				time.Sleep(50 * time.Microsecond)
			}
		}(c)
	}
	// Close while the submitters are still running: late bursts must
	// resolve as rejected, earlier ones must drain.
	time.Sleep(3 * time.Millisecond)
	s.Close()
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
	// Every refused submission surfaced a StatusRejected result
	// (backpressure rejections count in Stats.Rejected; post-Close
	// refusals deliberately do not), and the rest were admitted.
	if st.Accepted+refused.Load() != submitted.Load() {
		t.Errorf("accepted %d + refused %d != submitted %d", st.Accepted, refused.Load(), submitted.Load())
	}
	if st.Rejected > refused.Load() {
		t.Errorf("stats count %d rejections but only %d results were refused", st.Rejected, refused.Load())
	}
}

// TestStatsSnapshotConsistency is the monitoring contract: Stats() and
// monitor.Snapshot() views taken mid-flight stay internally consistent
// (no negative in-flight, completions never outrun admissions), and at
// quiescence the books balance exactly — offered == accepted + rejected
// and accepted == done + shed + in-flight with in-flight == 0 — with
// the Stats fields agreeing with the raw monitor counters they front.
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
			if snap.Counters["serve.accepted"] < st.Accepted {
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
		reqs := make([]Request, 25)
		for i := range reqs {
			reqs[i] = Request{Key: uint64(r*len(reqs) + i)}
		}
		offered += int64(len(reqs))
		for _, tk := range tn.SubmitMany(reqs) {
			_ = tk // resolved below via Close drain
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
	for name, want := range map[string]int64{
		"serve.accepted":     st.Accepted,
		"serve.rejected":     st.Rejected,
		"serve.shed":         st.Shed,
		"serve.done":         st.Done,
		"serve.failed":       st.Failed,
		"serve.batches":      st.Batches,
		"serve.adapt.steals": st.Steals,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("snapshot %s = %d, Stats reports %d", name, got, want)
		}
	}
}
