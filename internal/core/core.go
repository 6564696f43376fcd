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

	stop    chan struct{}
	stopped atomic.Bool // set once by Shutdown; submit panics after it
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
		stop:     make(chan struct{}),
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
func (rt *Runtime) Shutdown() {
	rt.Wait()
	if rt.stopped.Swap(true) {
		return
	}
	close(rt.stop)
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
// parked), so an idle target takes its work alone. The thief scan tries
// target's own locale first, starting at the worker after target and
// wrapping, then (StealGlobal only) the other locales, so a steal stays
// local when it can.
//
// Liveness does not depend on the thief: target always receives a token
// and wake is buffered, so a target between its last empty check and
// its select still sees the push. A busy target pops its own deque when
// its current SGT returns; the thief only spreads surplus work sooner.
// A worker that is never chosen cannot miss work either: it publishes
// parked before its steal scan (see worker.loop), so either that scan
// sees the push or this notify sees the flag.
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
	wpl, n := rt.cfg.WorkersPerLocale, len(rt.workers)
	base := target.locale * wpl
	for i := 1; i < n; i++ {
		var w *worker
		switch {
		case i < wpl:
			w = rt.workers[base+(target.id-base+i)%wpl]
		case policy == StealLocal:
			return
		default:
			w = rt.workers[(base+i)%n]
		}
		if w.parked.CompareAndSwap(true, false) {
			select {
			case w.wake <- struct{}{}:
			default:
			}
			return
		}
	}
}

// String summarizes the runtime for debugging.
func (rt *Runtime) String() string {
	return fmt.Sprintf("Runtime(locales=%d workers/locale=%d steal=%s)",
		rt.cfg.Locales, rt.cfg.WorkersPerLocale, rt.cfg.Steal)
}
