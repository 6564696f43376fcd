package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Runtime is the HTVM runtime system: the worker pool that executes the
// SGT/TGT levels, plus the shared services (frame arena, monitor,
// tracer) every thread level uses. Create one with NewRuntime, submit
// work, then Wait and Shutdown.
type Runtime struct {
	cfg     Config
	mon     *monitor.Monitor
	tracer  *trace.Tracer
	arena   *mem.FrameArena
	workers []*worker

	// pending counts outstanding LGTs + SGTs. It is atomic so spawn and
	// finish never take mu: mu and cond serve only the zero crossing
	// (taskFinished broadcasts under mu) and the Wait callers.
	pending atomic.Int64
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when pending reaches zero

	stopped atomic.Bool // set once by Shutdown; halts the workers, and submit panics after it
	wg      sync.WaitGroup

	// sgtSpawn and sgtDone are the per-SGT monitor counters, and the
	// steal counters the successful steal scans bump, resolved once here
	// so spawn, finish and steal skip the monitor's name lookup.
	sgtSpawn, sgtDone                   *monitor.Counter
	stealLocal, stealRemote, migrations *monitor.Counter

	// Thread ids are atomic: id assignment sits on every spawn path,
	// including the serve layer's per-batch detached spawns.
	nextLGT atomic.Int64
	nextSGT atomic.Int64
	rr      atomic.Int64 // round-robin cursor for external submissions

	// sgtPool recycles detached SGTs (GoAtDetached): a batch-spawn-heavy
	// caller reuses activation records instead of allocating one per
	// spawn. Only detached SGTs enter the pool — joinable SGTs escape to
	// their Done cells and are never recycled.
	sgtPool sync.Pool
}

// NewRuntime builds and starts a runtime.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Locales <= 0 {
		cfg.Locales = 1
	}
	if cfg.WorkersPerLocale <= 0 {
		w := runtime.GOMAXPROCS(0) / cfg.Locales
		if w < 1 {
			w = 1
		}
		cfg.WorkersPerLocale = w
	}
	if cfg.Monitor == nil {
		cfg.Monitor = monitor.New()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rt := &Runtime{
		cfg:      cfg,
		mon:      cfg.Monitor,
		tracer:   cfg.Tracer,
		arena:    mem.NewFrameArena(),
		sgtSpawn: cfg.Monitor.Counter("core.sgt.spawn"),
		sgtDone:  cfg.Monitor.Counter("core.sgt.done"),

		stealLocal:  cfg.Monitor.Counter("core.steal.local"),
		stealRemote: cfg.Monitor.Counter("core.steal.remote"),
		migrations:  cfg.Monitor.Counter("core.migrations"),
	}
	rt.cond = sync.NewCond(&rt.mu)
	total := cfg.Locales * cfg.WorkersPerLocale
	seedRNG := stats.NewRNG(cfg.Seed)
	for i := 0; i < total; i++ {
		w := &worker{
			rt:     rt,
			id:     i,
			locale: i / cfg.WorkersPerLocale,
			rng:    seedRNG.Split(uint64(i)),
			wake:   make(chan struct{}, 1),
		}
		rt.workers = append(rt.workers, w)
	}
	for _, w := range rt.workers {
		w.victims = rt.victimOrder(w)
		rt.wg.Add(1)
		go w.loop()
	}
	return rt
}

// Config returns the runtime's effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Monitor returns the runtime's monitor.
func (rt *Runtime) Monitor() *monitor.Monitor { return rt.mon }

// Workers returns the total number of workers.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// taskStarted accounts a new outstanding thread (LGT or SGT). It is one
// atomic add: spawning never takes mu.
func (rt *Runtime) taskStarted() { rt.pending.Add(1) }

// taskFinished retires one outstanding thread. Only the decrement that
// reaches zero takes mu, to broadcast to Wait callers; Wait reads
// pending under mu, so the broadcast cannot slip between its check and
// its cond.Wait.
func (rt *Runtime) taskFinished() {
	switch n := rt.pending.Add(-1); {
	case n == 0:
		rt.mu.Lock()
		rt.cond.Broadcast()
		rt.mu.Unlock()
	case n < 0:
		panic("core: pending went negative")
	}
}

// Wait blocks until no LGTs or SGTs are outstanding. Work submitted
// after quiescence requires another Wait.
func (rt *Runtime) Wait() {
	rt.mu.Lock()
	for rt.pending.Load() != 0 {
		rt.cond.Wait()
	}
	rt.mu.Unlock()
}

// Shutdown stops the worker pool after the current queue drains. It is
// idempotent. Submitting work after Shutdown panics.
//
// A worker parks on its wake channel alone, so Shutdown halts the pool
// through that channel: after quiescence (Wait) it stores stopped, then
// puts a token of its own into every worker's wake, and a worker that
// wakes to stopped returns. Shutdown's token is sent after the store,
// so the receive that takes it sees stopped. A stale token cannot stand
// in for it and strand a worker: the one-slot wake is either empty (the
// send is ready) or holds a token sent earlier (the receive is ready,
// and drops it), so the loop ends with Shutdown's token in the slot or
// taken. A token is stale when a notify sent it to a busy worker, or
// when it came late: a submitter's notify can run after the SGT it
// pushed has finished and Wait has returned. A worker that returned on
// a stale token leaves Shutdown's unread.
func (rt *Runtime) Shutdown() {
	rt.Wait()
	if rt.stopped.Swap(true) {
		return
	}
	for _, w := range rt.workers {
		for sent := false; !sent; {
			select {
			case w.wake <- struct{}{}:
				sent = true
			case <-w.wake:
			}
		}
	}
	rt.wg.Wait()
}

// submit enqueues an SGT. from is the submitting worker (nil when the
// submission comes from outside the pool, e.g. an LGT goroutine).
func (rt *Runtime) submit(s *SGT, from *worker) {
	if rt.stopped.Load() {
		panic("core: submit after Shutdown")
	}
	var target *worker
	if from != nil && from.locale == s.locale {
		target = from
	} else {
		// Round-robin across the home locale's workers.
		base := s.locale * rt.cfg.WorkersPerLocale
		idx := int(uint64(rt.rr.Add(1)-1) % uint64(rt.cfg.WorkersPerLocale))
		target = rt.workers[base+idx]
	}
	target.push(s)
	rt.notify(target)
}

// notify wakes the workers that should see a push onto target's deque:
// always target, and one parked thief only when target is busy (not
// parked), so an idle target takes its work alone. The thief is the
// first parked worker in target's victim order (target's own locale
// first, then, StealGlobal only, the other locales), so a steal stays
// local when it can.
//
// Liveness does not depend on the thief: target always receives a token
// and wake is buffered, so a target between its last empty check and
// its park still sees the push. A busy target pops its own deque when
// its current SGT returns; the thief only spreads surplus work sooner.
// A worker that is never chosen cannot miss work either: the push
// stored target's size before this reads parked, and a parker stores
// parked before its scan reads sizes (see worker.loop).
func (rt *Runtime) notify(target *worker) {
	idle := target.parked.Swap(false)
	select {
	case target.wake <- struct{}{}:
	default:
	}
	policy := rt.cfg.Steal
	if idle || policy == StealNone {
		return
	}
	thieves := target.victims
	if policy == StealLocal {
		thieves = thieves[:rt.cfg.WorkersPerLocale-1]
	}
	for _, w := range thieves {
		if w.parked.CompareAndSwap(true, false) {
			select {
			case w.wake <- struct{}{}:
			default:
			}
			return
		}
	}
}

// victimOrder lists every worker but w in the order w steals from them
// and notify picks a thief for a push onto w: w's own locale first,
// starting after w and wrapping, then the other locales, starting after
// w's own.
func (rt *Runtime) victimOrder(w *worker) []*worker {
	wpl, n := rt.cfg.WorkersPerLocale, len(rt.workers)
	base := w.locale * wpl
	vs := make([]*worker, 0, n-1)
	for i := 1; i < wpl; i++ {
		vs = append(vs, rt.workers[base+(w.id-base+i)%wpl])
	}
	for i := wpl; i < n; i++ {
		vs = append(vs, rt.workers[(base+i)%n])
	}
	return vs
}

// String summarizes the runtime for debugging.
func (rt *Runtime) String() string {
	return fmt.Sprintf("Runtime(locales=%d workers/locale=%d steal=%s)",
		rt.cfg.Locales, rt.cfg.WorkersPerLocale, rt.cfg.Steal)
}
