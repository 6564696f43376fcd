package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
)

func newTestRT(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := NewRuntime(cfg)
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestGoRunsAndWaits(t *testing.T) {
	rt := newTestRT(t, Config{})
	var ran atomic.Int32
	for i := 0; i < 100; i++ {
		rt.Go(func(s *SGT) { ran.Add(1) })
	}
	rt.Wait()
	if ran.Load() != 100 {
		t.Errorf("ran = %d, want 100", ran.Load())
	}
}

func TestNestedSpawn(t *testing.T) {
	rt := newTestRT(t, Config{})
	var count atomic.Int64
	var spawnTree func(s *SGT, depth int)
	spawnTree = func(s *SGT, depth int) {
		count.Add(1)
		if depth == 0 {
			return
		}
		s.Spawn(func(c *SGT) { spawnTree(c, depth-1) })
		s.Spawn(func(c *SGT) { spawnTree(c, depth-1) })
	}
	rt.Go(func(s *SGT) { spawnTree(s, 10) })
	rt.Wait()
	if want := int64(1<<11 - 1); count.Load() != want {
		t.Errorf("count = %d, want %d", count.Load(), want)
	}
}

func TestJoinOrdering(t *testing.T) {
	// Join blocks a worker, so guarantee a second worker exists.
	rt := newTestRT(t, Config{WorkersPerLocale: 4})
	var order []int
	rt.Go(func(s *SGT) {
		child := s.Spawn(func(c *SGT) {
			order = append(order, 1)
		})
		s.Join(child)
		order = append(order, 2)
	})
	rt.Wait()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
}

func TestFrameAllocatedAndSized(t *testing.T) {
	rt := newTestRT(t, Config{})
	var got int
	rt.GoAt(0, 256, func(s *SGT) {
		got = len(s.Frame())
	})
	rt.Wait()
	if got != 256 {
		t.Errorf("frame size = %d, want 256", got)
	}
}

func TestFiberDataflow(t *testing.T) {
	rt := newTestRT(t, Config{})
	var result atomic.Int64
	rt.GoAt(0, 64, func(s *SGT) {
		// Two producer fibers feed a consumer fiber through the frame.
		frame := s.Frame()
		consumer := s.NewFiber(2, func(f *Fiber) {
			result.Store(int64(frame[0]) + int64(frame[1]))
		})
		p1 := s.NewFiber(0, func(f *Fiber) {
			frame[0] = 40
			consumer.Signal()
		})
		_ = p1
		p2 := s.NewFiber(0, func(f *Fiber) {
			frame[1] = 2
			consumer.Signal()
		})
		_ = p2
	})
	rt.Wait()
	if result.Load() != 42 {
		t.Errorf("result = %d, want 42", result.Load())
	}
}

func TestFiberChain(t *testing.T) {
	rt := newTestRT(t, Config{})
	const n = 100
	var hops atomic.Int64
	rt.GoAt(0, 8, func(s *SGT) {
		var mk func(i int) *Fiber
		mk = func(i int) *Fiber {
			return s.NewFiber(1, func(f *Fiber) {
				hops.Add(1)
				if i+1 < n {
					mk(i + 1).Signal()
				}
			})
		}
		mk(0).Signal()
	})
	rt.Wait()
	if hops.Load() != n {
		t.Errorf("hops = %d, want %d", hops.Load(), n)
	}
}

func TestFiberCrossSGTSignal(t *testing.T) {
	rt := newTestRT(t, Config{})
	var got atomic.Int64
	rt.Go(func(s *SGT) {
		sink := s.Spawn(nil)
		_ = sink
	})
	rt.Wait()

	// A fiber on SGT A signaled by SGT B: the SGT with the fiber stays
	// live (pending) until the signal arrives.
	a := rt.GoAt(0, 16, func(s *SGT) {})
	var fib *Fiber
	ready := make(chan struct{})
	b := rt.GoAt(0, 16, func(s *SGT) {
		fib = s.NewFiber(1, func(f *Fiber) { got.Store(7) })
		close(ready)
	})
	_ = a
	_ = b
	<-ready
	fib.Signal()
	rt.Wait()
	if got.Load() != 7 {
		t.Errorf("got = %d, want 7", got.Load())
	}
}

func TestSGTDoneCell(t *testing.T) {
	rt := newTestRT(t, Config{})
	s := rt.Go(func(s *SGT) {})
	s.Done().Get()
	if !s.Done().Full() {
		t.Error("done cell should be full")
	}
}

func TestLGTLifecycle(t *testing.T) {
	rt := newTestRT(t, Config{Locales: 2, WorkersPerLocale: 2})
	var fromSGT atomic.Int32
	l := rt.SpawnLGT(1, func(l *LGT) {
		h := l.Heap()
		buf := h.Alloc(64)
		buf[0] = 9
		sgt := l.Go(func(s *SGT) {
			fromSGT.Store(int32(buf[0])) // SGT sees LGT private memory
		})
		sgt.Done().Get()
	})
	l.Done().Get()
	rt.Wait()
	if fromSGT.Load() != 9 {
		t.Errorf("SGT saw %d, want 9", fromSGT.Load())
	}
	if l.Locale() != 1 {
		t.Errorf("locale = %d", l.Locale())
	}
}

func TestStealPolicyNoneKeepsLocalesSeparate(t *testing.T) {
	mon := monitor.New()
	rt := newTestRT(t, Config{Locales: 2, WorkersPerLocale: 1, Steal: StealNone, Monitor: mon})
	for i := 0; i < 50; i++ {
		rt.GoAt(0, 0, func(s *SGT) {})
	}
	rt.Wait()
	if v := mon.Counter("core.steal.remote").Value(); v != 0 {
		t.Errorf("remote steals = %d, want 0 under StealNone", v)
	}
	if v := mon.Counter("core.steal.local").Value(); v != 0 {
		t.Errorf("local steals = %d, want 0 under StealNone", v)
	}
}

func TestStealGlobalMigrates(t *testing.T) {
	mon := monitor.New()
	rt := newTestRT(t, Config{Locales: 2, WorkersPerLocale: 2, Steal: StealGlobal, Monitor: mon})
	// All work homed at locale 0; locale-1 workers must migrate some.
	// Whether they wake before the queue drains is timing-dependent
	// (single-core machines under -race can drain first), so feed
	// batches until a migration lands, bounded by a deadline.
	var busy atomic.Int64
	deadline := time.Now().Add(10 * time.Second)
	for mon.Counter("core.migrations").Value() == 0 && time.Now().Before(deadline) {
		for i := 0; i < 400; i++ {
			rt.GoAt(0, 0, func(s *SGT) {
				x := int64(1)
				for j := 0; j < 20000; j++ {
					x = x*31 + 7
				}
				busy.Add(x & 1)
			})
		}
		rt.Wait()
	}
	if v := mon.Counter("core.migrations").Value(); v == 0 {
		t.Error("expected cross-locale migrations under StealGlobal with skewed load")
	}
}

func TestExecLocaleReflectsMigration(t *testing.T) {
	rt := newTestRT(t, Config{Locales: 1, WorkersPerLocale: 2})
	s := rt.Go(func(s *SGT) {})
	s.Done().Get()
	if s.ExecLocale() != 0 {
		t.Errorf("ExecLocale = %d, want 0", s.ExecLocale())
	}
}

func TestInvalidLocalePanics(t *testing.T) {
	rt := newTestRT(t, Config{Locales: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rt.GoAt(3, 0, func(s *SGT) {})
}

func TestNilFiberBodyPanics(t *testing.T) {
	rt := newTestRT(t, Config{})
	done := make(chan bool, 1)
	rt.Go(func(s *SGT) {
		defer func() { done <- recover() != nil }()
		s.NewFiber(1, nil)
	})
	rt.Wait()
	if !<-done {
		t.Error("nil fiber body should panic")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	rt := NewRuntime(Config{})
	rt.Go(func(s *SGT) {})
	rt.Shutdown()
	rt.Shutdown() // must not panic or hang
}

func TestWaitOnIdleRuntimeReturns(t *testing.T) {
	rt := newTestRT(t, Config{})
	rt.Wait() // no work: must return immediately
}

func TestManySGTsStress(t *testing.T) {
	rt := newTestRT(t, Config{Locales: 2, WorkersPerLocale: 2, Steal: StealGlobal})
	var n atomic.Int64
	const total = 20000
	for i := 0; i < total; i++ {
		rt.GoAt(i%2, 0, func(s *SGT) { n.Add(1) })
	}
	rt.Wait()
	if n.Load() != total {
		t.Errorf("ran %d, want %d", n.Load(), total)
	}
}

func TestMonitorCounters(t *testing.T) {
	mon := monitor.New()
	rt := newTestRT(t, Config{Monitor: mon})
	rt.GoAt(0, 32, func(s *SGT) {
		f := s.NewFiber(0, func(f *Fiber) {})
		_ = f
	})
	rt.Wait()
	snap := mon.Snapshot()
	if snap.Counters["core.sgt.spawn"] != 1 {
		t.Errorf("sgt.spawn = %d", snap.Counters["core.sgt.spawn"])
	}
	if snap.Counters["core.tgt.spawn"] != 1 || snap.Counters["core.tgt.run"] != 1 {
		t.Errorf("tgt counters = %v", snap.Counters)
	}
	if snap.Counters["core.sgt.done"] != 1 {
		t.Errorf("sgt.done = %d", snap.Counters["core.sgt.done"])
	}
}

func TestRuntimeString(t *testing.T) {
	rt := newTestRT(t, Config{Locales: 2, WorkersPerLocale: 3, Steal: StealLocal})
	want := "Runtime(locales=2 workers/locale=3 steal=local)"
	if rt.String() != want {
		t.Errorf("String = %q, want %q", rt.String(), want)
	}
}

// TestBusyWorkerWakesThief pins notify's thief rule: a push onto a busy
// worker wakes a parked one, of the busy worker's own locale when it has
// one. A blocks its worker on a gate and spawns B onto that same
// worker's deque; only B opens the gate, so B must be stolen and run by
// another worker. Each round makes the next locale-0 worker the busy
// one. The deadline turns a lost thief wake into a failure rather than
// a hang.
func TestBusyWorkerWakesThief(t *testing.T) {
	for _, locales := range []int{1, 2} {
		mon := monitor.New()
		rt := newTestRT(t, Config{Locales: locales, WorkersPerLocale: 2, Steal: StealGlobal, Monitor: mon})
		for round := 0; round < 2; round++ {
			// Start from a parked pool, so only notify can wake a thief (a
			// worker still starting up would find B on its own first scan).
			for _, w := range rt.workers {
				for !w.parked.Load() {
					time.Sleep(time.Millisecond)
				}
			}
			gate := make(chan struct{})
			var ranA, ranB *worker
			var opened bool
			rt.Go(func(a *SGT) {
				ranA = a.curWorker()
				a.Spawn(func(b *SGT) {
					ranB = b.curWorker()
					close(gate)
				})
				select {
				case <-gate:
					opened = true
				case <-time.After(5 * time.Second):
					// Return so this worker pops B itself, and the test fails.
				}
			})
			rt.Wait()
			if !opened {
				t.Fatalf("locales=%d round %d: B did not run while A held its worker: no thief was woken", locales, round)
			}
			if ranA == ranB || ranA.locale != ranB.locale {
				t.Errorf("locales=%d round %d: A ran on worker %d, B on %d; want B stolen within the locale",
					locales, round, ranA.id, ranB.id)
			}
		}
		if v := mon.Counter("core.steal.remote").Value(); v != 0 {
			t.Errorf("locales=%d: remote steals = %d, want 0", locales, v)
		}
	}
}

// TestWaitRacesNestedSpawns checks the lock-free pending count against
// Wait: producers spawn nested SGT chains across locales and detached
// SGTs while another goroutine loops on Wait. Once every producer has
// returned, one more Wait must mean every spawned SGT has completed.
func TestWaitRacesNestedSpawns(t *testing.T) {
	mon := monitor.New()
	rt := NewRuntime(Config{Locales: 2, WorkersPerLocale: 2, Steal: StealGlobal, Monitor: mon})
	const producers, roots, depth = 4, 50, 4
	var ran atomic.Int64
	var chain func(s *SGT, left int)
	chain = func(s *SGT, left int) {
		ran.Add(1)
		if left > 0 {
			// Alternate same-worker pushes with cross-locale spawns.
			s.SpawnAt((s.Locale()+left)%2, 0, func(c *SGT) { chain(c, left-1) })
		}
	}
	detached := func(_ *SGT, _ any) { ran.Add(1) }

	stop := make(chan struct{})
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		for {
			select {
			case <-stop:
				return
			default:
				rt.Wait()
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < roots; i++ {
				rt.GoAt((p+i)%2, 0, func(s *SGT) { chain(s, depth) })
				rt.GoAtDetached(i%2, 0, detached, nil)
			}
		}(p)
	}
	wg.Wait()
	rt.Wait()
	close(stop)
	<-waiterDone

	want := int64(producers * roots * (depth + 2))
	if got := ran.Load(); got != want {
		t.Errorf("completed %d SGT bodies after Wait, want %d", got, want)
	}
	spawned, done := mon.Counter("core.sgt.spawn").Value(), mon.Counter("core.sgt.done").Value()
	if spawned != want || done != spawned {
		t.Errorf("core.sgt.spawn = %d, core.sgt.done = %d, want both %d", spawned, done, want)
	}
	shut := make(chan struct{})
	go func() { rt.Shutdown(); close(shut) }()
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

// TestStealKeepsDequeCapacity: a deque that is pushed onto and stolen
// from in turn reuses its backing array. Stealing by reslicing from the
// front gave the capacity away, and every later push reallocated.
func TestStealKeepsDequeCapacity(t *testing.T) {
	w := &worker{}
	s := &SGT{}
	for i := 0; i < 4; i++ {
		w.push(s)
	}
	for w.stealFrom() != nil {
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.push(s)
		w.push(s)
		w.stealFrom()
		w.stealFrom()
	}); allocs != 0 {
		t.Fatalf("push/steal cycle allocated %.1f times, want 0", allocs)
	}
	if w.deque[:cap(w.deque)][0] != nil {
		t.Fatal("a stolen SGT is still referenced from the deque's backing array")
	}
}

// waitParked blocks until every worker of rt has published parked: the
// pool is idle, so only a token on wake can move a worker.
func waitParked(rt *Runtime) {
	for _, w := range rt.workers {
		for !w.parked.Load() {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestShutdownWakesParkedWorkers: a worker parks on its wake channel
// alone, so Shutdown must reach every worker through it. Shutdown
// returns only once every worker goroutine has exited (it waits on the
// pool's WaitGroup), so a return within the deadline is the check. The
// second case buffers a stale token on every worker while all of them
// are busy, so each worker's last park finds a token that was sent
// before Shutdown stored its flag.
func TestShutdownWakesParkedWorkers(t *testing.T) {
	cfg := Config{Locales: 2, WorkersPerLocale: 2, Steal: StealGlobal}
	shutdownWithin := func(t *testing.T, rt *Runtime, release func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { rt.Shutdown(); close(done) }()
		release()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Shutdown did not return: a worker was left parked")
		}
	}
	t.Run("parked pool", func(t *testing.T) {
		rt := NewRuntime(cfg)
		rt.Go(func(*SGT) {})
		rt.Wait()
		waitParked(rt)
		shutdownWithin(t, rt, func() {})
	})
	t.Run("stale tokens", func(t *testing.T) {
		rt := NewRuntime(cfg)
		waitParked(rt)
		gate := make(chan struct{})
		started := make(chan *worker)
		for i := range rt.workers {
			rt.GoAt(i%cfg.Locales, 0, func(s *SGT) {
				started <- s.curWorker()
				<-gate
			})
		}
		// Each SGT holds its worker until the gate opens, so the
		// queued ones are stolen until every worker holds one.
		busy := map[*worker]bool{}
		for range rt.workers {
			busy[<-started] = true
		}
		if len(busy) != len(rt.workers) {
			t.Fatalf("%d of %d workers busy", len(busy), len(rt.workers))
		}
		for _, w := range rt.workers {
			select {
			case w.wake <- struct{}{}:
			default:
			}
			if len(w.wake) != 1 {
				t.Fatalf("worker %d: no token buffered", w.id)
			}
		}
		shutdownWithin(t, rt, func() { close(gate) })
	})
}

// TestStealSeesDequeLength: the size word that pop and a thief read
// without the lock equals len(deque) after every push, pop and steal,
// and an empty deque yields nothing to either.
func TestStealSeesDequeLength(t *testing.T) {
	w := &worker{}
	check := func(op string) {
		t.Helper()
		if got, want := w.size.Load(), int64(len(w.deque)); got != want {
			t.Fatalf("after %s: size = %d, len(deque) = %d", op, got, want)
		}
	}
	s := &SGT{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4+round; i++ {
			w.push(s)
			check("push")
		}
		for i := 0; w.size.Load() > 0; i++ {
			if i%2 == 0 {
				w.pop()
				check("pop")
			} else {
				w.stealFrom()
				check("steal")
			}
		}
		if w.pop() != nil || w.stealFrom() != nil {
			t.Fatal("an empty deque yielded an SGT")
		}
		check("empty pop and steal")
	}
}
