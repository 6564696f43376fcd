package c64

// Chan is a simulated mailbox carrying values of type T between
// tasklets with a configurable delivery latency. Sends never block;
// receives block until a value is available. It is the simulator-level
// primitive under parcels and spike exchange.
type Chan[T any] struct {
	m       *Machine
	lat     int64
	buf     []T
	waiters []*chanWaiter[T]
}

type chanWaiter[T any] struct {
	tu  *TU
	val T
	got bool
}

// NewChan creates a mailbox on m whose deliveries take lat cycles.
func NewChan[T any](m *Machine, lat int64) *Chan[T] {
	if lat < 0 {
		lat = 0
	}
	return &Chan[T]{m: m, lat: lat}
}

// Send enqueues v for delivery lat cycles from now. It may be called
// from tasklet code or from engine context (e.g. setup, timers).
func (c *Chan[T]) Send(v T) {
	m := c.m
	m.schedule(m.now+c.lat, func() { c.deliver(v) })
}

// deliver runs in engine context.
func (c *Chan[T]) deliver(v T) {
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		w.val = v
		w.got = true
		c.m.resume(w.tu)
		return
	}
	c.buf = append(c.buf, v)
}

// Recv blocks the calling tasklet until a value is available and
// returns it. Values are delivered in send order.
func (c *Chan[T]) Recv(tu *TU) T {
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[1:]
		return v
	}
	w := &chanWaiter[T]{tu: tu}
	c.waiters = append(c.waiters, w)
	tu.wait()
	if !w.got {
		panic("c64: Chan.Recv resumed without a value")
	}
	return w.val
}

// TryRecv returns a buffered value without blocking, if one exists.
func (c *Chan[T]) TryRecv() (T, bool) {
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[1:]
		return v, true
	}
	var zero T
	return zero, false
}

// Len returns the number of buffered (already delivered) values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Barrier synchronizes a fixed set of tasklets: the n-th arrival
// releases everyone. It is reusable across phases.
type Barrier struct {
	m       *Machine
	n       int
	arrived int
	waiting []*TU
	phase   int64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(m *Machine, n int) *Barrier {
	if n <= 0 {
		panic("c64: barrier size must be positive")
	}
	return &Barrier{m: m, n: n}
}

// Phase returns how many times the barrier has been released.
func (b *Barrier) Phase() int64 { return b.phase }

// Arrive blocks until all n participants have arrived in this phase.
func (b *Barrier) Arrive(tu *TU) {
	b.arrived++
	if b.arrived < b.n {
		b.waiting = append(b.waiting, tu)
		tu.wait()
		return
	}
	// Last arrival releases the others and continues.
	released := b.waiting
	b.waiting = nil
	b.arrived = 0
	b.phase++
	for _, w := range released {
		w := w
		b.m.schedule(b.m.now, func() { b.m.resume(w) })
	}
}

// WG is a simulated wait group: tasklets block in Wait until the
// counter returns to zero.
type WG struct {
	m       *Machine
	count   int
	waiting []*TU
}

// NewWG creates a wait group on m.
func NewWG(m *Machine) *WG { return &WG{m: m} }

// Add increments the counter by delta. A negative delta that drives the
// counter to zero releases all waiters; below zero panics.
func (wg *WG) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("c64: WG counter went negative")
	}
	if wg.count == 0 {
		released := wg.waiting
		wg.waiting = nil
		for _, w := range released {
			w := w
			wg.m.schedule(wg.m.now, func() { wg.m.resume(w) })
		}
	}
}

// Done decrements the counter by one.
func (wg *WG) Done() { wg.Add(-1) }

// Wait blocks the tasklet until the counter is zero.
func (wg *WG) Wait(tu *TU) {
	if wg.count == 0 {
		return
	}
	wg.waiting = append(wg.waiting, tu)
	tu.wait()
}

// Sem is a counting semaphore for simulated resources (e.g. DMA
// engines, percolation buffers).
type Sem struct {
	m       *Machine
	permits int
	waiting []*TU
}

// NewSem creates a semaphore with the given initial permits.
func NewSem(m *Machine, permits int) *Sem {
	return &Sem{m: m, permits: permits}
}

// Acquire takes one permit, blocking while none are available.
func (s *Sem) Acquire(tu *TU) {
	if s.permits > 0 {
		s.permits--
		return
	}
	s.waiting = append(s.waiting, tu)
	tu.wait()
}

// Release returns one permit, waking one waiter if any.
func (s *Sem) Release() {
	if len(s.waiting) > 0 {
		w := s.waiting[0]
		s.waiting = s.waiting[1:]
		s.m.schedule(s.m.now, func() { s.m.resume(w) })
		return
	}
	s.permits++
}
