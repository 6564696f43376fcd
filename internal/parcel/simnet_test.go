// The tests in this file and in percolation_test.go and
// datapercolation_test.go exercise percolate.SimNet, the simulated twin
// of Net: the same send / call / split-phase parcel contract on the
// Cyclops-64 simulator, and its code and data percolation. They run as
// an external test package, so Net's own build never imports the
// simulator.
package parcel_test

import (
	"testing"

	"repro/internal/c64"
	"repro/internal/percolate"
)

func TestSimNetSendAndStop(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(4))
	n := percolate.NewSimNet(m)
	got := int64(0)
	n.Register("set", func(tu *c64.TU, from int, payload int64) int64 {
		got = payload
		return 0
	})
	m.Spawn(0, func(tu *c64.TU) {
		n.Send(tu, 2, "set", 99)
		tu.Stall(10000) // let delivery finish before stopping
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 99 {
		t.Errorf("payload = %d, want 99", got)
	}
}

func TestSimNetCallRoundTrip(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(4))
	n := percolate.NewSimNet(m)
	n.Register("triple", func(tu *c64.TU, from int, payload int64) int64 {
		tu.Compute(10)
		return payload * 3
	})
	var got int64
	var elapsed int64
	m.Spawn(0, func(tu *c64.TU) {
		t0 := tu.Now()
		got = n.Call(tu, 2, "triple", 5)
		elapsed = tu.Now() - t0
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 15 {
		t.Errorf("reply = %d, want 15", got)
	}
	cfg := m.Config()
	minRT := 2 * cfg.Hops(0, 2) * cfg.HopLat
	if elapsed < minRT {
		t.Errorf("round trip %d cycles, want >= %d (wire time)", elapsed, minRT)
	}
}

func TestSimNetCallAsyncOverlaps(t *testing.T) {
	// Async caller overlaps a long local computation with the round
	// trip; total time should be close to max(compute, roundtrip), not
	// the sum.
	run := func(async bool) int64 {
		m := c64.New(c64.MultiNodeConfig(4))
		n := percolate.NewSimNet(m)
		n.Register("slow", func(tu *c64.TU, from int, payload int64) int64 {
			tu.Compute(500)
			return payload
		})
		m.Spawn(0, func(tu *c64.TU) {
			if async {
				reply := n.CallAsync(tu, 2, "slow", 1)
				tu.Compute(600) // overlapped work
				reply.Recv(tu)
			} else {
				n.Call(tu, 2, "slow", 1)
				tu.Compute(600)
			}
			n.Stop()
		})
		end, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return end
	}
	blocking := run(false)
	overlapped := run(true)
	if overlapped >= blocking {
		t.Errorf("async (%d) should finish before blocking (%d)", overlapped, blocking)
	}
}

func TestSimNetLocalParcelCheap(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(4))
	n := percolate.NewSimNet(m)
	n.Register("id", func(tu *c64.TU, from int, payload int64) int64 { return payload })
	var localT, remoteT int64
	m.Spawn(0, func(tu *c64.TU) {
		t0 := tu.Now()
		n.Call(tu, 0, "id", 1)
		localT = tu.Now() - t0
		t0 = tu.Now()
		n.Call(tu, 2, "id", 1)
		remoteT = tu.Now() - t0
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if localT >= remoteT {
		t.Errorf("local call (%d) should be cheaper than remote (%d)", localT, remoteT)
	}
}

func TestSimNetStopIdempotent(t *testing.T) {
	m := c64.New(c64.DefaultConfig())
	n := percolate.NewSimNet(m)
	m.Spawn(0, func(tu *c64.TU) {
		n.Stop()
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSimNetUnknownHandlerPanics(t *testing.T) {
	m := c64.New(c64.DefaultConfig())
	n := percolate.NewSimNet(m)
	m.Spawn(0, func(tu *c64.TU) {
		n.Send(tu, 0, "nope", 0)
	})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.MustRun()
}

func TestCodePercolationColdVsWarm(t *testing.T) {
	m := c64.New(c64.MultiNodeConfig(4))
	n := percolate.NewSimNet(m)
	n.RegisterCode("kernel", 0, 4096, func(tu *c64.TU, from int, payload int64) int64 {
		tu.Compute(50)
		return payload
	})
	var cold, warm int64
	m.Spawn(0, func(tu *c64.TU) {
		t0 := tu.Now()
		n.Call(tu, 2, "kernel", 1) // cold: node 2 must fetch the image
		cold = tu.Now() - t0
		t0 = tu.Now()
		n.Call(tu, 2, "kernel", 1) // warm
		warm = tu.Now() - t0
		n.Stop()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if cold <= warm {
		t.Errorf("cold call (%d) should exceed warm call (%d)", cold, warm)
	}
	if !n.CodeResident("kernel", 2) {
		t.Error("image should be resident after first call")
	}
}

func TestCodePrefetchHidesColdStart(t *testing.T) {
	run := func(prefetch bool) int64 {
		m := c64.New(c64.MultiNodeConfig(4))
		n := percolate.NewSimNet(m)
		n.RegisterCode("kernel", 0, 8192, func(tu *c64.TU, from int, payload int64) int64 {
			tu.Compute(50)
			return payload
		})
		m.Spawn(0, func(tu *c64.TU) {
			if prefetch {
				// Percolate the code while doing unrelated work.
				helper := m.Spawn(0, func(ht *c64.TU) { n.PrefetchCode(ht, "kernel", 2) })
				tu.Compute(3000) // overlapped computation
				tu.Join(helper)
			} else {
				tu.Compute(3000)
			}
			n.Call(tu, 2, "kernel", 1)
			n.Stop()
		})
		end, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	lazy := run(false)
	prefetched := run(true)
	if prefetched >= lazy {
		t.Errorf("prefetched (%d) should beat lazy cold start (%d)", prefetched, lazy)
	}
}

func TestPlainHandlerAlwaysResident(t *testing.T) {
	m := c64.New(c64.DefaultConfig())
	n := percolate.NewSimNet(m)
	n.Register("h", func(tu *c64.TU, from int, payload int64) int64 { return 0 })
	if !n.CodeResident("h", 0) {
		t.Error("plain handlers have no code gating")
	}
}
