package percolate

import "repro/internal/c64"

// CodeModel reports the modeled first-request latency of a parcel
// handler whose code image must be resident at the serving node
// (Section 3.2's percolation of program instruction blocks, applied to
// a request/response server): ColdCycles is the first call when the
// image is fetched on demand, WarmCycles the first call after
// PrefetchCode has percolated it ahead of use.
type CodeModel struct {
	ColdCycles int64
	WarmCycles int64
}

// TransferCycles is the code-transfer cost percolation hides: the gap
// between a cold and a warm first request.
func (m CodeModel) TransferCycles() int64 { return m.ColdCycles - m.WarmCycles }

// ModelCode runs two deterministic two-node simulations — one lazy, one
// prefetched — and returns the first-request latencies for a handler
// image of size bytes. The serve layer prices cold starts with the
// closed form of this model, and its tests pin that form to it.
func ModelCode(size int) CodeModel {
	if size <= 0 {
		size = 1
	}
	return CodeModel{
		ColdCycles: firstCallCycles(size, false),
		WarmCycles: firstCallCycles(size, true),
	}
}

// firstCallCycles measures one split-transaction call from node 0 to a
// handler executing on node 1 whose code image is homed on node 0.
func firstCallCycles(size int, prefetch bool) int64 {
	m := c64.New(c64.MultiNodeConfig(2))
	net := NewSimNet(m)
	net.RegisterCode("handler", 0, size, func(tu *c64.TU, from int, payload int64) int64 {
		tu.Compute(1)
		return payload
	})
	var lat int64
	m.Spawn(0, func(tu *c64.TU) {
		if prefetch {
			net.PrefetchCode(tu, "handler", 1)
		}
		t0 := tu.Now()
		net.Call(tu, 1, "handler", 0)
		lat = tu.Now() - t0
		net.Stop()
	})
	m.MustRun()
	return lat
}
