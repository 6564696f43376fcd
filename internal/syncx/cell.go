package syncx

import (
	"sync"
)

// Cell is a write-once dataflow cell (an I-structure element): it starts
// empty, accepts exactly one Put, and delivers that value to any number
// of readers. Readers may block (Get) or register continuations (OnFull)
// that run at the site of the value — the "localized buffering of
// requests" the paper's futures construct calls for.
//
// A blocked Get waits on a semaphore embedded in the cell, not on a
// channel: the first Get that finds the cell empty arms it under mu, and
// the Put that fills the cell releases it, waking every waiter at once.
// So a waited cell allocates nothing of its own, and a Get after the Put
// never arms it.
type Cell[T any] struct {
	mu    sync.Mutex
	full  bool
	armed bool // wait holds one count, released by the filling Put
	val   T
	wait  sync.WaitGroup
	conts []func(T)
}

// NewCell returns an empty cell.
func NewCell[T any]() *Cell[T] { return &Cell[T]{} }

// Put fills the cell, waking blocked readers and running registered
// continuations on the caller's goroutine. A second Put panics: I-structure
// semantics make double writes a program error, and detecting them is one
// of the model's debugging benefits.
func (c *Cell[T]) Put(v T) {
	if !c.TryPut(v) {
		panic("syncx: double Put on dataflow cell")
	}
}

// TryPut fills the cell if empty and reports whether it did.
func (c *Cell[T]) TryPut(v T) bool {
	c.mu.Lock()
	if c.full {
		c.mu.Unlock()
		return false
	}
	c.full = true
	c.val = v
	conts := c.conts
	c.conts = nil
	armed := c.armed
	c.mu.Unlock()
	if armed {
		c.wait.Done()
	}
	for _, f := range conts {
		f(v)
	}
	return true
}

// Get blocks until the cell is full and returns the value.
func (c *Cell[T]) Get() T {
	c.mu.Lock()
	if c.full {
		v := c.val
		c.mu.Unlock()
		return v
	}
	if !c.armed {
		c.armed = true
		c.wait.Add(1)
	}
	c.mu.Unlock()
	c.wait.Wait()
	return c.val // immutable once full
}

// Peek returns the value without blocking, if present.
func (c *Cell[T]) Peek() (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val, c.full
}

// Full reports whether the cell has been written.
func (c *Cell[T]) Full() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.full
}

// OnFull registers fn to run with the value: immediately if the cell is
// already full, otherwise when Put fires. Continuations are buffered at
// the cell (the value's site) rather than spinning at the consumer.
func (c *Cell[T]) OnFull(fn func(T)) {
	c.mu.Lock()
	if c.full {
		v := c.val
		c.mu.Unlock()
		fn(v)
		return
	}
	c.conts = append(c.conts, fn)
	c.mu.Unlock()
}

// IArray is an array of write-once cells with the same semantics,
// convenient for producer-consumer pipelines over indexed data.
type IArray[T any] struct {
	cells []Cell[T]
}

// NewIArray creates an I-structure array of length n.
func NewIArray[T any](n int) *IArray[T] {
	return &IArray[T]{cells: make([]Cell[T], n)}
}

// Len returns the array length.
func (a *IArray[T]) Len() int { return len(a.cells) }

// Put writes element i (once).
func (a *IArray[T]) Put(i int, v T) { a.cells[i].Put(v) }

// Get blocks until element i is written.
func (a *IArray[T]) Get(i int) T { return a.cells[i].Get() }

// OnFull registers a continuation on element i.
func (a *IArray[T]) OnFull(i int, fn func(T)) { a.cells[i].OnFull(fn) }

// Full reports whether element i has been written.
func (a *IArray[T]) Full(i int) bool { return a.cells[i].Full() }
