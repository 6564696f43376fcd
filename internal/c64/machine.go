package c64

import (
	"container/heap"
	"fmt"
)

// Proc is the body of a simulated thread. It runs on a simulated thread
// unit and advances virtual time only through the blocking primitives on
// TU (Compute, Load, Store, channel operations, ...).
type Proc func(tu *TU)

// Machine is the simulated machine: the discrete-event engine plus the
// nodes, thread units, memory banks, and network ports it coordinates.
//
// Exactly one goroutine (either the engine or the single currently
// running tasklet) executes at any moment, so simulations are
// deterministic regardless of GOMAXPROCS.
type Machine struct {
	cfg Config

	now int64
	seq int64
	pq  eventHeap

	// yield is the handshake channel: a tasklet sends on it when it
	// blocks or finishes; the engine receives before advancing.
	yield chan struct{}

	nodes []*node

	live    int // tasklets spawned but not finished
	nextTID int64
	metrics Metrics
	running bool
}

// node models one chip: its thread units, run queue, memory banks and
// network port.
type node struct {
	id        int
	freeUnits []int
	runq      []*TU
	sram      []bank
	dram      []bank
	port      bank    // network port modeled as a single contended resource
	busy      []int64 // per-unit cumulative busy cycles
}

// bank is a contended resource: an access arriving at time t begins
// service at max(t, nextFree) and holds the bank for its occupancy.
type bank struct {
	nextFree int64
	accesses int64
	waited   int64 // cumulative queueing cycles
}

// acquire reserves the bank starting no earlier than t for occ cycles and
// returns the service start time.
func (b *bank) acquire(t, occ int64) int64 {
	start := t
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + occ
	b.accesses++
	b.waited += start - t
	return start
}

// New creates a machine from cfg (zero fields take defaults).
func New(cfg Config) *Machine {
	cfg = cfg.validate()
	m := &Machine{cfg: cfg, yield: make(chan struct{})}
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:   i,
			sram: make([]bank, cfg.SRAMBanks),
			dram: make([]bank, cfg.DRAMBanks),
			busy: make([]int64, cfg.UnitsPerNode),
		}
		for u := cfg.UnitsPerNode - 1; u >= 0; u-- {
			n.freeUnits = append(n.freeUnits, u)
		}
		m.nodes = append(m.nodes, n)
	}
	return m
}

// Config returns the validated machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time in cycles.
func (m *Machine) Now() int64 { return m.now }

// Spawn schedules a new tasklet on the given node, charging the
// configured spawn cost before it becomes runnable. The tasklet starts
// when a thread unit on that node is free. Spawn may be called before
// Run or from inside a running tasklet.
func (m *Machine) Spawn(nodeID int, f Proc) *TU {
	return m.SpawnAfter(nodeID, m.cfg.SpawnCost, f)
}

// SpawnAfter is Spawn with an explicit readiness delay, used by callers
// that model their own thread-creation costs (e.g. grain-level studies).
func (m *Machine) SpawnAfter(nodeID int, delay int64, f Proc) *TU {
	if nodeID < 0 || nodeID >= len(m.nodes) {
		panic(fmt.Sprintf("c64: spawn on invalid node %d", nodeID))
	}
	m.nextTID++
	tu := &TU{m: m, node: nodeID, id: m.nextTID, unit: -1, resume: make(chan struct{})}
	m.live++
	m.metrics.Spawns++
	m.schedule(m.now+delay, func() { m.enqueue(tu, f) })
	return tu
}

// enqueue places a ready tasklet on its node, dispatching immediately if
// a thread unit is free.
func (m *Machine) enqueue(tu *TU, f Proc) {
	n := m.nodes[tu.node]
	tu.body = f
	if len(n.freeUnits) > 0 {
		unit := n.freeUnits[len(n.freeUnits)-1]
		n.freeUnits = n.freeUnits[:len(n.freeUnits)-1]
		m.start(tu, unit)
		return
	}
	n.runq = append(n.runq, tu)
	m.metrics.Queued++
}

// start launches the tasklet goroutine on the given unit and waits for
// its first yield. Runs in engine context.
func (m *Machine) start(tu *TU, unit int) {
	tu.unit = unit
	tu.startTime = m.now
	go func() {
		defer func() {
			// Capture panics and re-raise them from the engine (i.e. on
			// the goroutine that called Run), so caller-side recover
			// works as with ordinary code.
			tu.panicVal = recover()
			tu.done = true
			m.yield <- struct{}{}
		}()
		tu.body(tu)
	}()
	m.waitYield(tu)
}

// resume unblocks a waiting tasklet and lets it run until its next yield.
// Runs in engine context.
func (m *Machine) resume(tu *TU) {
	tu.resume <- struct{}{}
	m.waitYield(tu)
}

// waitYield blocks the engine until the currently running tasklet yields
// or finishes; if it finished, its unit is released to the next queued
// tasklet at the current time.
func (m *Machine) waitYield(tu *TU) {
	<-m.yield
	if !tu.done {
		return
	}
	if tu.panicVal != nil {
		panic(tu.panicVal)
	}
	m.live--
	m.metrics.Completed++
	tu.finish(m)
	n := m.nodes[tu.node]
	if len(n.runq) > 0 {
		next := n.runq[0]
		n.runq = n.runq[1:]
		m.start(next, tu.unit)
		return
	}
	n.freeUnits = append(n.freeUnits, tu.unit)
}

// Run drives the simulation until no events remain. It returns the final
// virtual time and an error if tasklets remain blocked with no pending
// events (a simulated deadlock).
func (m *Machine) Run() (int64, error) {
	if m.running {
		return m.now, fmt.Errorf("c64: Run called reentrantly")
	}
	m.running = true
	defer func() { m.running = false }()
	for m.pq.Len() > 0 {
		ev := heap.Pop(&m.pq).(event)
		m.now = ev.t
		ev.fn()
	}
	if m.live > 0 {
		return m.now, fmt.Errorf("c64: deadlock: %d tasklet(s) blocked with no pending events", m.live)
	}
	return m.now, nil
}

// MustRun is Run but panics on deadlock; used by benchmarks where a
// deadlock is a programming error.
func (m *Machine) MustRun() int64 {
	t, err := m.Run()
	if err != nil {
		panic(err)
	}
	return t
}

// Metrics returns a copy of the machine-wide counters accumulated so far.
func (m *Machine) Metrics() Metrics {
	mm := m.metrics
	for _, n := range m.nodes {
		for i := range n.sram {
			mm.SRAMAccesses += n.sram[i].accesses
			mm.BankWait += n.sram[i].waited
		}
		for i := range n.dram {
			mm.DRAMAccesses += n.dram[i].accesses
			mm.BankWait += n.dram[i].waited
		}
		mm.NetMessages += n.port.accesses
		for _, b := range n.busy {
			mm.BusyCycles += b
		}
	}
	return mm
}

// Utilization returns aggregate thread-unit utilization in [0,1]:
// busy cycles divided by (units x elapsed time). Zero elapsed time
// yields zero.
func (m *Machine) Utilization() float64 {
	if m.now == 0 {
		return 0
	}
	var busy int64
	var units int64
	for _, n := range m.nodes {
		for _, b := range n.busy {
			busy += b
		}
		units += int64(len(n.busy))
	}
	return float64(busy) / float64(units*m.now)
}

// Metrics aggregates machine-wide counters for the experiment harness.
type Metrics struct {
	Spawns       int64
	Completed    int64
	Queued       int64 // tasklets that had to wait for a free unit
	Loads        int64
	Stores       int64
	RemoteAcc    int64 // accesses whose home node differed from the issuer
	SRAMAccesses int64
	DRAMAccesses int64
	BankWait     int64 // cumulative cycles spent queued behind banks
	NetMessages  int64
	NetBytes     int64
	BusyCycles   int64
	StallCycles  int64 // cycles tasklets spent blocked on memory/network
}
