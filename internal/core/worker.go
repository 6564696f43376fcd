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
	w.mu.Unlock()
}

// pop removes from the owner end (LIFO: best cache locality for
// recursively spawned work).
func (w *worker) pop() *SGT {
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	s := w.deque[n-1]
	w.deque = w.deque[:n-1]
	w.mu.Unlock()
	return s
}

// stealFrom removes from the victim end (FIFO: thieves take the oldest,
// typically largest, task).
func (w *worker) stealFrom() *SGT {
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
	w.mu.Unlock()
	return s
}

// loop is the worker body: run its own deque newest-first, and when
// that is empty publish parked, try to steal, and sleep on wake only if
// the steal found nothing. Setting parked before the steal scan closes
// the lost-thief window: a spawner pushes and then reads parked, so
// either the scan sees the push or notify sees the flag. A token that
// arrives after the scan succeeded costs one spurious loop, no more.
// Shutdown closes stop only after quiescence (Wait), so there is no
// work left to drain when it fires.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	for {
		s := w.pop()
		if s == nil {
			w.parked.Store(true)
			if s = w.trySteal(); s == nil {
				select {
				case <-w.wake:
				case <-w.rt.stop:
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
// stealing policy. Victim order is randomized per attempt, with local
// victims tried before remote ones so migration happens only when a
// locale is globally starved.
func (w *worker) trySteal() *SGT {
	policy := w.rt.cfg.Steal
	if policy == StealNone {
		return nil
	}
	if s := w.stealScan(true); s != nil {
		return s
	}
	if policy == StealGlobal {
		return w.stealScan(false)
	}
	return nil
}

// stealScan scans victims (local locale when local is true, other
// locales otherwise) in a random rotation.
func (w *worker) stealScan(local bool) *SGT {
	ws := w.rt.workers
	n := len(ws)
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := ws[(start+i)%n]
		if v == w {
			continue
		}
		if local != (v.locale == w.locale) {
			continue
		}
		if s := v.stealFrom(); s != nil {
			mon := w.rt.mon
			if v.locale == w.locale {
				mon.Counter("core.steal.local").Inc()
			} else {
				mon.Counter("core.steal.remote").Inc()
				mon.Counter("core.migrations").Inc()
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
