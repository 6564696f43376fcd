package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/trace"
)

// worker is one scheduling thread of the SGT level: it owns a deque
// (owner pops newest-first for locality, thieves take oldest-first) and
// participates in work stealing according to the runtime policy.
type worker struct {
	rt     *Runtime
	id     int
	locale int
	rng    *stats.RNG

	mu    sync.Mutex
	deque []*SGT
	// size mirrors len(deque): it is stored under mu by push, pop and
	// steal, and read without it, so the owner and a thief pass over an
	// empty deque without taking the lock.
	size atomic.Int64

	// victims is every other worker in steal order (see victimOrder):
	// the first WorkersPerLocale-1 share this worker's locale.
	victims []*worker

	// wake carries one buffered token per notify; parked is set while
	// the worker looks for work it has not got and cleared by whoever
	// wakes it (notify swaps it off before sending the token).
	wake   chan struct{}
	parked atomic.Bool
}

// push adds an SGT to the owner end of the deque.
func (w *worker) push(s *SGT) {
	w.mu.Lock()
	w.deque = append(w.deque, s)
	w.size.Store(int64(len(w.deque)))
	w.mu.Unlock()
}

// pop removes from the owner end (LIFO: best cache locality for
// recursively spawned work).
func (w *worker) pop() *SGT {
	if w.size.Load() == 0 {
		return nil
	}
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	s := w.deque[n-1]
	w.deque = w.deque[:n-1]
	w.size.Store(int64(n - 1))
	w.mu.Unlock()
	return s
}

// stealFrom removes from the victim end (FIFO: thieves take the oldest,
// typically largest, task).
func (w *worker) stealFrom() *SGT {
	if w.size.Load() == 0 {
		return nil
	}
	w.mu.Lock()
	if len(w.deque) == 0 {
		w.mu.Unlock()
		return nil
	}
	s := w.deque[0]
	// Shift down rather than reslice from the front: a front reslice
	// gives up capacity, and a later push would reallocate the deque.
	n := copy(w.deque, w.deque[1:])
	w.deque[n] = nil
	w.deque = w.deque[:n]
	w.size.Store(int64(n))
	w.mu.Unlock()
	return s
}

// loop is the worker body: run its own deque newest-first, and when
// that is empty publish parked, try to steal, and park on wake only if
// the steal found nothing. The only thing a parked worker waits on is
// its wake channel.
//
// Setting parked before the steal scan closes the lost-thief window. A
// spawner stores the victim's size (push) and then reads parked
// (notify); a parker stores parked and then reads the sizes (its scan).
// All four are sequentially consistent atomics, so one side sees the
// other: either the scan finds the push or notify finds the flag. The
// owner's pop reads its size without the lock too, and may miss a push
// it races with; that loses nothing, because notify always sends the
// target a token after the push. A token that arrives after the scan
// succeeded costs one spurious loop, no more.
//
// A token that finds stopped set means Shutdown: see there for why
// every worker gets such a token.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	for {
		s := w.pop()
		if s == nil {
			w.parked.Store(true)
			if s = w.trySteal(); s == nil {
				<-w.wake
				if w.rt.stopped.Load() {
					return
				}
			}
			w.parked.Store(false)
		}
		if s != nil {
			w.run(s)
		}
	}
}

// trySteal attempts to take work from another worker, respecting the
// stealing policy: victims of the worker's own locale first, so
// migration happens only when a locale is globally starved.
func (w *worker) trySteal() *SGT {
	local := w.victims[:w.rt.cfg.WorkersPerLocale-1]
	switch w.rt.cfg.Steal {
	case StealNone:
		return nil
	case StealLocal:
		return w.stealScan(local)
	}
	if s := w.stealScan(local); s != nil {
		return s
	}
	return w.stealScan(w.victims[len(local):])
}

// stealScan tries each victim once, starting at a random one and
// wrapping. A victim whose size reads 0 costs one atomic load.
func (w *worker) stealScan(vs []*worker) *SGT {
	if len(vs) == 0 {
		return nil
	}
	i := w.rng.Intn(len(vs))
	for range vs {
		v := vs[i]
		if i++; i == len(vs) {
			i = 0
		}
		if s := v.stealFrom(); s != nil {
			if v.locale == w.locale {
				w.rt.stealLocal.Inc()
			} else {
				w.rt.stealRemote.Inc()
				w.rt.migrations.Inc()
				w.rt.tracer.Emit(w.id, trace.Event{
					Kind: trace.KindMigration, Locale: w.locale, Arg: s.id,
				})
			}
			w.rt.tracer.Emit(w.id, trace.Event{
				Kind: trace.KindSteal, Locale: w.locale, Arg: s.id,
			})
			return s
		}
	}
	return nil
}

// run executes one SGT activation: its main function (first activation
// only) followed by all currently enabled fibers, repeating until the
// SGT has nothing runnable. See SGT for the completion protocol.
func (w *worker) run(s *SGT) {
	s.execute(w)
}
