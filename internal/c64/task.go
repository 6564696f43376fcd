package c64

// TU is the execution context handed to a tasklet: a simulated thread
// running on one hardware thread unit. All its blocking primitives
// advance virtual time; plain Go computation between calls is free (this
// is what makes the simulator function-accurate rather than
// cycle-accurate — costs are declared, results are computed natively).
type TU struct {
	m    *Machine
	id   int64
	node int
	unit int

	resume    chan struct{}
	done      bool
	body      Proc
	startTime int64

	joiners  []*TU
	finished bool
	panicVal interface{} // captured tasklet panic, re-raised by the engine
}

// ID returns the tasklet's unique id.
func (tu *TU) ID() int64 { return tu.id }

// Node returns the node the tasklet runs on.
func (tu *TU) Node() int { return tu.node }

// Unit returns the thread unit index, or -1 before dispatch.
func (tu *TU) Unit() int { return tu.unit }

// Now returns the current virtual time.
func (tu *TU) Now() int64 { return tu.m.now }

// Machine returns the owning machine (for Spawn, After, etc. — all
// machine state may be touched freely while the tasklet runs, because
// the engine is blocked until the tasklet yields).
func (tu *TU) Machine() *Machine { return tu.m }

// wait yields control to the engine and blocks until resumed.
func (tu *TU) wait() {
	tu.m.yield <- struct{}{}
	<-tu.resume
}

// Compute advances virtual time by c cycles of pure computation,
// accounted as busy time on this thread unit.
func (tu *TU) Compute(c int64) {
	if c <= 0 {
		return
	}
	m := tu.m
	m.nodes[tu.node].busy[tu.unit] += c
	m.schedule(m.now+c, func() { m.resume(tu) })
	tu.wait()
}

// Stall blocks the tasklet for c cycles without accounting busy time
// (models waiting on an external resource).
func (tu *TU) Stall(c int64) {
	if c <= 0 {
		return
	}
	m := tu.m
	m.metrics.StallCycles += c
	m.schedule(m.now+c, func() { m.resume(tu) })
	tu.wait()
}

// Join blocks until other has finished. Joining an already finished
// tasklet returns immediately.
func (tu *TU) Join(other *TU) {
	if other.finished {
		return
	}
	other.joiners = append(other.joiners, tu)
	tu.wait()
}

// finish wakes joiners; called by the engine when the tasklet ends.
func (tu *TU) finish(m *Machine) {
	tu.finished = true
	for _, j := range tu.joiners {
		jj := j
		m.schedule(m.now, func() { m.resume(jj) })
	}
	tu.joiners = nil
}
