package parcel_test

import (
	"testing"

	"repro/internal/c64"
	"repro/internal/percolate"
)

// TestColdCodeTransferSingleFlight: many parcels racing a cold handler
// on one node must pay the code transfer exactly once — the first
// requester moves the image, the rest wait for it to land.
func TestColdCodeTransferSingleFlight(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(2))
	n := percolate.NewSimNet(m)
	n.RegisterCode("kernel", 0, 8192, func(tu *c64.TU, from int, payload int64) int64 {
		tu.Compute(20)
		return payload
	})
	const clients = 6
	wg := c64.NewWG(m)
	wg.Add(clients)
	var replies int64
	for c := 0; c < clients; c++ {
		c := c
		// All clients issue at time 0: their parcels arrive together and
		// the handler activations race the cold image on node 1.
		m.Spawn(0, func(tu *c64.TU) {
			replies += n.Call(tu, 1, "kernel", int64(c))
			wg.Done()
		})
	}
	m.Spawn(0, func(tu *c64.TU) {
		wg.Wait(tu)
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if want := int64(clients * (clients - 1) / 2); replies != want {
		t.Errorf("reply sum = %d, want %d (every call must still complete)", replies, want)
	}
	if got := n.Transfers("kernel"); got != 1 {
		t.Errorf("code transfers = %d, want exactly 1 for %d concurrent cold calls", got, clients)
	}
	if !n.CodeResident("kernel", 1) {
		t.Error("image should be resident after the race")
	}
}

// TestPrefetchMakesFirstRequestWarm: after PrefetchCode, the first call
// must run at warm latency, and the prefetch itself must be the only
// transfer ever paid.
func TestPrefetchMakesFirstRequestWarm(t *testing.T) {
	firstCall := func(prefetch bool) (first, second int64, transfers int) {
		m := c64.New(c64.MultiNodeConfig(2))
		n := percolate.NewSimNet(m)
		n.RegisterCode("kernel", 0, 16384, func(tu *c64.TU, from int, payload int64) int64 {
			tu.Compute(20)
			return payload
		})
		m.Spawn(0, func(tu *c64.TU) {
			if prefetch {
				n.PrefetchCode(tu, "kernel", 1)
				if !n.CodeResident("kernel", 1) {
					t.Error("prefetch must leave the image resident")
				}
			}
			t0 := tu.Now()
			n.Call(tu, 1, "kernel", 1)
			first = tu.Now() - t0
			// The second call is warm by definition and must not pay again.
			t0 = tu.Now()
			n.Call(tu, 1, "kernel", 2)
			second = tu.Now() - t0
			n.Stop()
		})
		m.MustRun()
		return first, second, n.Transfers("kernel")
	}
	coldLat, coldSecond, coldXfers := firstCall(false)
	warmLat, warmSecond, warmXfers := firstCall(true)
	if coldXfers != 1 || warmXfers != 1 {
		t.Errorf("transfers = %d cold / %d warm, want exactly 1 each", coldXfers, warmXfers)
	}
	if warmLat >= coldLat {
		t.Errorf("prefetched first call (%d cycles) should be warm; cold paid %d", warmLat, coldLat)
	}
	// The prefetched first call must run at genuine warm latency: the
	// same cost the simulator charges a second (by-definition warm)
	// call. The cold first call must exceed that by the transfer cost.
	if warmLat != warmSecond {
		t.Errorf("prefetched first call = %d cycles, warm steady state = %d; prefetch left cold work", warmLat, warmSecond)
	}
	if gap := coldLat - coldSecond; gap <= 0 {
		t.Errorf("cold first call (%d) should exceed its steady state (%d)", coldLat, coldSecond)
	}
}

// TestPrefetchRacingLazyInstall: a prefetch racing the first parcel must
// also collapse into a single transfer.
func TestPrefetchRacingLazyInstall(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(2))
	n := percolate.NewSimNet(m)
	n.RegisterCode("kernel", 0, 8192, func(tu *c64.TU, from int, payload int64) int64 {
		return payload
	})
	wg := c64.NewWG(m)
	wg.Add(2)
	m.Spawn(0, func(tu *c64.TU) {
		n.PrefetchCode(tu, "kernel", 1)
		wg.Done()
	})
	m.Spawn(0, func(tu *c64.TU) {
		n.Call(tu, 1, "kernel", 7)
		wg.Done()
	})
	m.Spawn(0, func(tu *c64.TU) {
		wg.Wait(tu)
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Transfers("kernel"); got != 1 {
		t.Errorf("code transfers = %d, want 1 (prefetch and lazy install must single-flight)", got)
	}
}
