package core

import (
	"repro/internal/mem"
	"repro/internal/syncx"
	"repro/internal/trace"
)

// LGT is a large-grain thread: a dedicated goroutine with its own
// private heap, performing a substantial computation task. LGTs carry
// real invocation weight (a goroutine, a heap) in exchange for the
// freedom to block, loop and hold state — the paper's coarse-grain
// multithreading level, with context switching delegated to the Go
// scheduler rather than the operating system.
type LGT struct {
	rt      *Runtime
	id      int64
	locale  int
	heap    *mem.PrivateHeap
	done    *syncx.Cell[struct{}]
	failure interface{} // panic value, if the body faulted
}

// SpawnLGT starts a large-grain thread at the given locale. Its private
// heap is created lazily on first use and discarded on completion.
func (rt *Runtime) SpawnLGT(locale int, fn func(*LGT)) *LGT {
	if locale < 0 || locale >= rt.cfg.Locales {
		panic("core: LGT spawn at invalid locale")
	}
	id := rt.nextLGT.Add(1)
	l := &LGT{
		rt:     rt,
		id:     id,
		locale: locale,
		done:   syncx.NewCell[struct{}](),
	}
	rt.taskStarted()
	rt.mon.Counter("core.lgt.spawn").Inc()
	rt.tracer.Emit(locale, trace.Event{Kind: trace.KindThreadSpawn, Locale: locale, Arg: -id})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				l.failure = r
				rt.mon.Counter("core.lgt.panic").Inc()
			}
			rt.mon.Counter("core.lgt.done").Inc()
			l.done.Put(struct{}{})
			rt.taskFinished()
		}()
		fn(l)
	}()
	return l
}

// Failure returns the panic value that terminated the LGT, or nil if
// it completed cleanly. Valid after Done fills.
func (l *LGT) Failure() interface{} { return l.failure }

// ID returns the LGT's id.
func (l *LGT) ID() int64 { return l.id }

// Locale returns the LGT's locale.
func (l *LGT) Locale() int { return l.locale }

// Runtime returns the owning runtime.
func (l *LGT) Runtime() *Runtime { return l.rt }

// Heap returns the LGT's private heap, creating it on first use. Only
// the LGT goroutine may use it; SGTs invoked from the LGT see it by
// capturing allocations in their closures, mirroring the paper's
// "a group of SGTs invoked from an LGT will see the private memory of
// the LGT".
func (l *LGT) Heap() *mem.PrivateHeap {
	if l.heap == nil {
		l.heap = mem.NewPrivateHeap(0)
	}
	return l.heap
}

// Go spawns an SGT homed at the LGT's locale.
func (l *LGT) Go(fn func(*SGT)) *SGT {
	return l.rt.GoAt(l.locale, 0, fn)
}

// Done returns the completion cell of the LGT.
func (l *LGT) Done() *syncx.Cell[struct{}] { return l.done }

// Join blocks until other completes.
func (l *LGT) Join(other *LGT) { other.done.Get() }
