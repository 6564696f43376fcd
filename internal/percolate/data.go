package percolate

import "repro/internal/c64"

// DataModel reports the modeled first-access latency of a computation
// whose declared working-set block must be resident at the computing
// node (Section 3.2's percolation of program data blocks, applied to a
// request/response server): ColdCycles is the access when the block is
// fetched on demand on the critical path, WarmCycles the access after
// percolation staged it ahead of the computation.
type DataModel struct {
	ColdCycles int64
	WarmCycles int64
}

// TransferCycles is the data-transfer cost percolation hides: the gap
// between a cold (demand-fetched) and a warm (staged) first access.
func (m DataModel) TransferCycles() int64 { return m.ColdCycles - m.WarmCycles }

// ModelData runs two deterministic two-node simulations — one demand-
// fetched, one percolated — and returns the first-access latencies for
// a working-set block of size bytes. Like ModelCode, the transfer is
// priced by SimNet's percolation machinery, and the serve layer prices
// unstaged remote accesses and staging with the closed form of it.
func ModelData(size int) DataModel {
	if size <= 0 {
		size = 1
	}
	return DataModel{
		ColdCycles: firstTouchCycles(size, false),
		WarmCycles: firstTouchCycles(size, true),
	}
}

// firstTouchCycles measures one computation on node 1 touching a data
// block homed on node 0.
func firstTouchCycles(size int, prefetch bool) int64 {
	m := c64.New(c64.MultiNodeConfig(2))
	net := NewSimNet(m)
	net.RegisterData("ws", 0, size)
	var lat int64
	m.Spawn(1, func(tu *c64.TU) {
		if prefetch {
			net.PrefetchData(tu, "ws", 1)
		}
		t0 := tu.Now()
		net.TouchData(tu, "ws", 1)
		tu.Compute(1) // the enabled computation
		lat = tu.Now() - t0
		net.Stop()
	})
	m.MustRun()
	return lat
}
