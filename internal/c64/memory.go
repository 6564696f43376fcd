package c64

// Region identifies a level of the simulated memory hierarchy.
type Region uint8

// Memory regions, fastest to slowest.
const (
	Scratch Region = iota // per-thread-unit scratchpad
	SRAM                  // on-chip shared, banked
	DRAM                  // off-chip, banked
)

// String names the region.
func (r Region) String() string {
	switch r {
	case Scratch:
		return "scratch"
	case SRAM:
		return "sram"
	case DRAM:
		return "dram"
	}
	return "region?"
}

// Addr names a simulated memory location: its home node, hierarchy
// region, and a line number used for bank interleaving. The simulator
// models timing only; the actual data lives in ordinary Go values owned
// by the workload.
type Addr struct {
	Node   int
	Region Region
	Line   int64
}

// Local returns an address on the tasklet's own node.
func (tu *TU) Local(r Region, line int64) Addr {
	return Addr{Node: tu.node, Region: r, Line: line}
}

// accessLat computes and reserves the resources for one access of size
// bytes issued at now from node src, returning total completion latency.
// Must run while the issuing tasklet holds the machine (engine blocked).
func (m *Machine) accessLat(src int, a Addr, size int) int64 {
	if size <= 0 {
		size = 8
	}
	wire := int64(0)
	if a.Node != src {
		hops := m.cfg.hops(src, a.Node)
		// Round trip through both network ports plus per-hop latency and
		// payload serialization.
		t := m.now
		t = m.nodes[src].port.acquire(t, m.cfg.PortOcc) + m.cfg.PortOcc
		wire = (t - m.now) + 2*hops*m.cfg.HopLat + int64((size+7)/8)*m.cfg.ByteCost
		m.nodes[a.Node].port.acquire(m.now+wire/2, m.cfg.PortOcc)
		m.metrics.RemoteAcc++
		m.metrics.NetMessages++
		m.metrics.NetBytes += int64(size)
	}
	home := m.nodes[a.Node]
	var svc int64
	switch a.Region {
	case Scratch:
		svc = m.cfg.ScratchLat
	case SRAM:
		b := &home.sram[int(a.Line)%len(home.sram)]
		start := b.acquire(m.now+wire, m.cfg.SRAMOcc)
		svc = (start - m.now - wire) + m.cfg.SRAMLat
	case DRAM:
		b := &home.dram[int(a.Line)%len(home.dram)]
		start := b.acquire(m.now+wire, m.cfg.DRAMOcc)
		svc = (start - m.now - wire) + m.cfg.DRAMLat
	}
	return wire + svc
}

// Load blocks the tasklet for the full round-trip latency of a read of
// size bytes at a, including bank and network contention.
func (tu *TU) Load(a Addr, size int) {
	m := tu.m
	m.metrics.Loads++
	lat := m.accessLat(tu.node, a, size)
	tu.Stall(lat)
}

// Store blocks until the write is acknowledged (same timing as Load).
func (tu *TU) Store(a Addr, size int) {
	m := tu.m
	m.metrics.Stores++
	lat := m.accessLat(tu.node, a, size)
	tu.Stall(lat)
}

// StoreNB issues a non-blocking (split-transaction) store: the tasklet
// is charged only a one-cycle issue slot; completion happens in the
// background. This is the primitive parcels and percolation build on.
func (tu *TU) StoreNB(a Addr, size int) {
	m := tu.m
	m.metrics.Stores++
	m.accessLat(tu.node, a, size) // reserves banks/ports in the background
	tu.Compute(1)
}

// MemCopy models a bulk transfer of size bytes from src to dst as a
// pipelined stream: latency is one access round trip plus the
// serialization of the payload. The tasklet blocks until completion.
// Used by the percolation engine and locality migration.
func (tu *TU) MemCopy(dst, src Addr, size int) {
	m := tu.m
	m.metrics.Loads++
	m.metrics.Stores++
	lat := m.accessLat(tu.node, src, size)
	lat += m.accessLat(tu.node, dst, size)
	// Pipelining: overlap all but the first line of the read with writes.
	lines := int64((size + 7) / 8)
	if lines > 1 {
		lat -= (lines - 1) * m.cfg.ByteCost / 2
		if lat < 1 {
			lat = 1
		}
	}
	tu.Stall(lat)
}
