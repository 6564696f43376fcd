package core

import (
	"sync"

	"repro/internal/syncx"
	"repro/internal/trace"
)

// SGT is a small-grain thread: a frame-carrying task scheduled by the
// work-stealing pool. Its lifecycle follows the EARTH model: the main
// function runs once, and the activation stays live until every fiber
// (TGT) created against its frame has fired and run. The frame is then
// recycled.
type SGT struct {
	rt     *Runtime
	id     int64
	locale int // home locale (used for submission and locality stats)
	main   func(*SGT)
	// mainA/arg are the closure-free main form used by detached spawns
	// (GoAtDetached): a static function plus one argument value, so a
	// spawn-per-batch caller allocates neither a closure nor an SGT.
	mainA func(*SGT, any)
	arg   any
	frame []byte
	// detached marks a pooled SGT (GoAtDetached): it has no Done cell
	// and is recycled into the runtime's pool the moment it completes.
	detached bool

	mu          sync.Mutex
	worker      *worker  // executing worker, while running
	ready       []*Fiber // fired fibers awaiting execution
	outstanding int      // fibers created but not yet finished running
	mainDone    bool
	scheduled   bool // queued or running
	completed   bool

	execLocale int                   // locale of the worker that last ran it
	done       *syncx.Cell[struct{}] // nil for detached SGTs
	failure    interface{}           // first panic value from main or a fiber
}

// newSGT builds an SGT homed at locale with the given frame size.
func (rt *Runtime) newSGT(locale int, frameSize int, fn func(*SGT)) *SGT {
	if locale < 0 || locale >= rt.cfg.Locales {
		panic("core: SGT spawn at invalid locale")
	}
	s := &SGT{
		rt:         rt,
		id:         rt.nextSGT.Add(1),
		locale:     locale,
		main:       fn,
		execLocale: locale,
		done:       syncx.NewCell[struct{}](),
	}
	if frameSize > 0 {
		s.frame = rt.arena.Get(frameSize)
	}
	return s
}

// Go spawns an SGT at locale 0 with no frame. It is the plain entry
// point for code outside any thread context.
func (rt *Runtime) Go(fn func(*SGT)) *SGT {
	return rt.GoAt(0, 0, fn)
}

// GoAt spawns an SGT at the given locale with frameSize bytes of frame
// storage (0 for none).
func (rt *Runtime) GoAt(locale, frameSize int, fn func(*SGT)) *SGT {
	s := rt.newSGT(locale, frameSize, fn)
	s.scheduled = true
	rt.taskStarted()
	rt.sgtSpawn.Inc()
	rt.tracer.Emit(locale, trace.Event{Kind: trace.KindThreadSpawn, Locale: locale, Arg: s.id})
	rt.submit(s, nil)
	return s
}

// GoAtDetached spawns a detached SGT at the given locale: fn(s, arg)
// runs once like a main function, but the activation is fire-and-forget
// — it has no Done cell (nothing to join on) and its record is recycled
// through an internal pool the moment it completes. This is the
// steady-state-allocation-free spawn: a static fn plus a caller-owned
// arg means no closure, and pooling means no SGT allocation. The
// contract is strict: the caller must not retain s past fn's return,
// and fn must not create fibers that outlive the activation.
func (rt *Runtime) GoAtDetached(locale, frameSize int, fn func(*SGT, any), arg any) {
	if locale < 0 || locale >= rt.cfg.Locales {
		panic("core: SGT spawn at invalid locale")
	}
	s, _ := rt.sgtPool.Get().(*SGT)
	if s == nil {
		s = &SGT{}
	}
	s.rt = rt
	s.id = rt.nextSGT.Add(1)
	s.locale = locale
	s.execLocale = locale
	s.mainA = fn
	s.arg = arg
	s.detached = true
	s.scheduled = true
	if frameSize > 0 {
		s.frame = rt.arena.Get(frameSize)
	}
	rt.taskStarted()
	rt.sgtSpawn.Inc()
	rt.tracer.Emit(locale, trace.Event{Kind: trace.KindThreadSpawn, Locale: locale, Arg: s.id})
	rt.submit(s, nil)
}

// Spawn creates a child SGT at the same locale, submitted to the
// current worker's deque (LIFO) for locality.
func (s *SGT) Spawn(fn func(*SGT)) *SGT {
	return s.SpawnAt(s.locale, 0, fn)
}

// SpawnAt creates a child SGT at an explicit locale with the given
// frame size.
func (s *SGT) SpawnAt(locale, frameSize int, fn func(*SGT)) *SGT {
	rt := s.rt
	child := rt.newSGT(locale, frameSize, fn)
	child.scheduled = true
	rt.taskStarted()
	rt.sgtSpawn.Inc()
	rt.tracer.Emit(locale, trace.Event{Kind: trace.KindThreadSpawn, Locale: locale, Arg: child.id})
	rt.submit(child, s.curWorker())
	return child
}

// curWorker returns the worker currently executing this SGT (set for
// the duration of execute).
func (s *SGT) curWorker() *worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.worker
}

// ID returns the SGT's unique id.
func (s *SGT) ID() int64 { return s.id }

// Locale returns the SGT's home locale.
func (s *SGT) Locale() int { return s.locale }

// ExecLocale returns the locale of the worker that last executed the
// SGT — it differs from Locale after a cross-locale steal (migration).
func (s *SGT) ExecLocale() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execLocale
}

// Frame returns the SGT's private frame storage (nil when spawned with
// frame size 0). Fibers of this SGT share it.
func (s *SGT) Frame() []byte { return s.frame }

// Runtime returns the owning runtime.
func (s *SGT) Runtime() *Runtime { return s.rt }

// Done returns a cell filled when the SGT (including all its fibers)
// has completed; Join on it with Wait or chain with OnFull. Nil for
// detached SGTs (GoAtDetached), which cannot be joined.
func (s *SGT) Done() *syncx.Cell[struct{}] { return s.done }

// Join blocks the calling goroutine until other completes. Calling it
// from worker code blocks that worker; prefer fibers + sync slots for
// non-blocking dependence.
func (s *SGT) Join(other *SGT) { other.done.Get() }

// execute runs one activation: main (once) then enabled fibers until
// none remain, then decides completion. Called by a worker.
func (s *SGT) execute(w *worker) {
	s.mu.Lock()
	s.worker = w
	s.execLocale = w.locale
	runMain := !s.mainDone
	s.mainDone = true
	s.mu.Unlock()

	if runMain {
		s.rt.tracer.Emit(w.id, trace.Event{Kind: trace.KindThreadStart, Locale: w.locale, Arg: s.id})
		if s.main != nil {
			s.runGuarded(func() { s.main(s) })
		} else if s.mainA != nil {
			s.runGuarded(func() { s.mainA(s, s.arg) })
		}
	}
	for {
		s.mu.Lock()
		if len(s.ready) == 0 {
			s.worker = nil
			s.scheduled = false
			complete := s.outstanding == 0 && !s.completed
			if complete {
				s.completed = true
			}
			s.mu.Unlock()
			if complete {
				s.finish()
			}
			return
		}
		f := s.ready[len(s.ready)-1]
		s.ready = s.ready[:len(s.ready)-1]
		s.mu.Unlock()

		s.runGuarded(func() { f.fn(f) })
		s.mu.Lock()
		s.outstanding--
		s.mu.Unlock()
		s.rt.mon.Counter("core.tgt.run").Inc()
	}
}

// runGuarded executes fn, converting a panic into a recorded thread
// fault rather than a process crash: the runtime stays healthy, the
// SGT completes (its Done cell fills), and the failure is available
// via Failure. This is the fault containment a shared worker pool
// needs — one bad activation must not take down the machine.
func (s *SGT) runGuarded(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.failure == nil {
				s.failure = r
			}
			s.mu.Unlock()
			s.rt.mon.Counter("core.sgt.panic").Inc()
		}
	}()
	fn()
}

// Failure returns the first panic value raised by the SGT's main
// function or any of its fibers, or nil if it completed cleanly.
func (s *SGT) Failure() interface{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// finish releases resources and signals completion.
func (s *SGT) finish() {
	rt := s.rt
	if s.frame != nil {
		rt.arena.Put(s.frame)
		s.frame = nil
	}
	rt.sgtDone.Inc()
	rt.tracer.Emit(s.locale, trace.Event{Kind: trace.KindThreadEnd, Locale: s.locale, Arg: s.id})
	if s.done != nil {
		s.done.Put(struct{}{})
	}
	if s.detached {
		// Detached SGTs recycle immediately: nothing can hold a reference
		// past completion (no Done cell, and the spawn contract forbids
		// retaining s), so the record is safe to reuse.
		s.recycle(rt)
	}
	rt.taskFinished()
}

// recycle zeroes a detached SGT and returns it to the runtime pool.
// Every field resets so no tenant of one generation leaks into the next.
func (s *SGT) recycle(rt *Runtime) {
	s.rt = nil
	s.id = 0
	s.locale = 0
	s.main = nil
	s.mainA = nil
	s.arg = nil
	s.detached = false
	s.worker = nil
	s.ready = s.ready[:0]
	s.outstanding = 0
	s.mainDone = false
	s.scheduled = false
	s.completed = false
	s.execLocale = 0
	s.failure = nil
	rt.sgtPool.Put(s)
}

// enqueueFiber is called when a fiber's sync slot fires: the fiber
// becomes ready and the SGT is (re)scheduled if idle.
func (s *SGT) enqueueFiber(f *Fiber) {
	s.mu.Lock()
	if s.completed {
		s.mu.Unlock()
		panic("core: fiber fired on completed SGT")
	}
	s.ready = append(s.ready, f)
	resubmit := !s.scheduled
	if resubmit {
		s.scheduled = true
	}
	w := s.worker
	s.mu.Unlock()
	s.rt.tracer.Emit(s.locale, trace.Event{Kind: trace.KindSyncFire, Locale: s.locale, Arg: f.sgt.id})
	if resubmit {
		s.rt.submit(s, w)
	}
}
