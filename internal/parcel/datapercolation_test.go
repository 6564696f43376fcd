package parcel_test

import (
	"testing"

	"repro/internal/c64"
	"repro/internal/percolate"
)

// TestDataBlockSingleFlight: many tasklets touching one cold data block
// on the same node must move it across the network exactly once — the
// first pays, the rest wait for the copy to land, exactly like code.
func TestDataBlockSingleFlight(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(2))
	n := percolate.NewSimNet(m)
	n.RegisterData("ws", 0, 4096)
	const touchers = 5
	wg := c64.NewWG(m)
	wg.Add(touchers)
	for i := 0; i < touchers; i++ {
		m.Spawn(1, func(tu *c64.TU) {
			n.TouchData(tu, "ws", 1)
			tu.Compute(10)
			wg.Done()
		})
	}
	m.Spawn(1, func(tu *c64.TU) {
		wg.Wait(tu)
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.DataTransfers("ws"); got != 1 {
		t.Errorf("data transfers = %d, want exactly 1 for %d concurrent cold touches", got, touchers)
	}
	if !n.DataResident("ws", 1) || !n.DataResident("ws", 0) {
		t.Error("block should be resident at home and at the touching node")
	}
}

// TestPrefetchDataHidesTransfer: a touch after PrefetchData must be
// much cheaper than a demand fetch of the same block, and the prefetch
// must be the only transfer paid.
func TestPrefetchDataHidesTransfer(t *testing.T) {
	touch := func(prefetch bool) (cycles int64, transfers int) {
		m := c64.New(c64.MultiNodeConfig(2))
		n := percolate.NewSimNet(m)
		n.RegisterData("ws", 0, 32768)
		m.Spawn(1, func(tu *c64.TU) {
			if prefetch {
				n.PrefetchData(tu, "ws", 1)
			}
			t0 := tu.Now()
			n.TouchData(tu, "ws", 1)
			cycles = tu.Now() - t0
			n.Stop()
		})
		m.MustRun()
		return cycles, n.DataTransfers("ws")
	}
	cold, coldXfers := touch(false)
	warm, warmXfers := touch(true)
	if coldXfers != 1 || warmXfers != 1 {
		t.Fatalf("transfers: cold %d, warm %d, want 1 each", coldXfers, warmXfers)
	}
	if warm >= cold {
		t.Errorf("warm touch (%d cycles) not cheaper than cold (%d cycles)", warm, cold)
	}
	if warm != 0 {
		t.Errorf("warm touch of a resident block cost %d cycles, want 0", warm)
	}
}

// TestTouchUnknownDataPanics: data blocks must be registered; touching
// an unknown name is programmer error surfaced loudly.
func TestTouchUnknownDataPanics(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(1))
	n := percolate.NewSimNet(m)
	defer func() {
		if recover() == nil {
			t.Error("TouchData of an unregistered block did not panic")
		}
	}()
	m.Spawn(0, func(tu *c64.TU) {
		n.TouchData(tu, "nope", 0)
		n.Stop()
	})
	m.MustRun()
}
