package syncx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCellPutGet(t *testing.T) {
	c := NewCell[int]()
	go c.Put(42)
	if v := c.Get(); v != 42 {
		t.Errorf("Get = %d, want 42", v)
	}
	// Repeated Gets return the same value without blocking.
	if v := c.Get(); v != 42 {
		t.Errorf("second Get = %d, want 42", v)
	}
}

func TestCellDoublePutPanics(t *testing.T) {
	c := NewCell[int]()
	c.Put(1)
	defer func() {
		if recover() == nil {
			t.Error("double Put should panic")
		}
	}()
	c.Put(2)
}

func TestCellTryPut(t *testing.T) {
	c := NewCell[string]()
	if !c.TryPut("a") {
		t.Error("first TryPut should succeed")
	}
	if c.TryPut("b") {
		t.Error("second TryPut should fail")
	}
	if v, ok := c.Peek(); !ok || v != "a" {
		t.Errorf("Peek = %q,%v", v, ok)
	}
}

func TestCellOnFullBeforePut(t *testing.T) {
	c := NewCell[int]()
	var got atomic.Int64
	c.OnFull(func(v int) { got.Store(int64(v)) })
	c.Put(7)
	if got.Load() != 7 {
		t.Errorf("continuation saw %d, want 7", got.Load())
	}
}

func TestCellOnFullAfterPut(t *testing.T) {
	c := NewCell[int]()
	c.Put(9)
	ran := false
	c.OnFull(func(v int) { ran = v == 9 })
	if !ran {
		t.Error("continuation on full cell should run immediately")
	}
}

func TestCellManyWaiters(t *testing.T) {
	c := NewCell[int]()
	const n = 32
	var sum atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum.Add(int64(c.Get()))
		}()
	}
	c.Put(3)
	wg.Wait()
	if sum.Load() != 3*n {
		t.Errorf("sum = %d, want %d", sum.Load(), 3*n)
	}
}

func TestCellFull(t *testing.T) {
	c := NewCell[int]()
	if c.Full() {
		t.Error("new cell should be empty")
	}
	c.Put(1)
	if !c.Full() {
		t.Error("cell should be full after Put")
	}
}

func TestIArray(t *testing.T) {
	a := NewIArray[int](10)
	if a.Len() != 10 {
		t.Fatalf("Len = %d", a.Len())
	}
	var wg sync.WaitGroup
	results := make([]int, 10)
	for i := 0; i < 10; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = a.Get(i)
		}()
	}
	for i := 0; i < 10; i++ {
		a.Put(i, i*i)
	}
	wg.Wait()
	for i, v := range results {
		if v != i*i {
			t.Errorf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
	if !a.Full(3) {
		t.Error("element 3 should be full")
	}
}

func TestIArrayOnFullChaining(t *testing.T) {
	// Dataflow chain: element i+1 is produced by the continuation on i.
	a := NewIArray[int](5)
	for i := 0; i < 4; i++ {
		i := i
		a.OnFull(i, func(v int) { a.Put(i+1, v+1) })
	}
	a.Put(0, 100)
	if got := a.Get(4); got != 104 {
		t.Errorf("chain result = %d, want 104", got)
	}
}

func TestCellPropertyFirstWriteWins(t *testing.T) {
	f := func(vals []int) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewCell[int]()
		for _, v := range vals {
			c.TryPut(v)
		}
		got, ok := c.Peek()
		return ok && got == vals[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// isArmed reports whether a Get has armed c's semaphore, i.e. blocked.
func isArmed[T any](c *Cell[T]) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed
}

// untilArmed yields until a Get blocks on c.
func untilArmed[T any](c *Cell[T]) {
	for !isArmed(c) {
		runtime.Gosched()
	}
}

// TestCellBlockingGetAllocsNothing: a Get that parks waits on the
// semaphore inside the cell, so a blocking Get/Put round trip on a
// preallocated cell allocates nothing. The putter is one long-lived
// goroutine fed by a channel, and it puts only once the Get has
// blocked.
func TestCellBlockingGetAllocsNothing(t *testing.T) {
	const runs = 200
	cells := make([]Cell[int], runs+1) // AllocsPerRun adds one warm-up run
	feed := make(chan *Cell[int])
	defer close(feed)
	go func() {
		for c := range feed {
			untilArmed(c)
			c.Put(1)
		}
	}()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c := &cells[next]
		next++
		feed <- c
		if c.Get() != 1 {
			t.Error("Get returned the wrong value")
		}
	})
	if allocs != 0 {
		t.Fatalf("blocking Get/Put round trip allocated %.1f times, want 0", allocs)
	}
}

// TestCellWaitersReleasedByPutAndTryPut: every Get that blocked before
// the cell was filled returns the value, whether Put or TryPut filled
// it.
func TestCellWaitersReleasedByPutAndTryPut(t *testing.T) {
	for _, fill := range []struct {
		name string
		put  func(c *Cell[int], v int)
	}{
		{"Put", (*Cell[int]).Put},
		{"TryPut", func(c *Cell[int], v int) { c.TryPut(v) }},
	} {
		t.Run(fill.name, func(t *testing.T) {
			c := NewCell[int]()
			const n = 8
			got := make(chan int, n)
			for i := 0; i < n; i++ {
				go func() { got <- c.Get() }()
			}
			untilArmed(c)
			fill.put(c, 5)
			for i := 0; i < n; i++ {
				if v := <-got; v != 5 {
					t.Fatalf("waiter %d got %d, want 5", i, v)
				}
			}
		})
	}
}

// TestCellGetAfterPutDoesNotArm: a Get that finds the cell full returns
// at once and never arms the semaphore.
func TestCellGetAfterPutDoesNotArm(t *testing.T) {
	c := NewCell[int]()
	c.Put(3)
	if c.Get() != 3 || isArmed(c) {
		t.Fatal("a Get after Put armed the cell's semaphore")
	}
	d := NewCell[int]()
	d.TryPut(4)
	if d.Get() != 4 || isArmed(d) {
		t.Fatal("a Get after TryPut armed the cell's semaphore")
	}
}

// TestCellOnFullAndBlockedGet: a continuation and a blocked Get on one
// cell both fire on the Put.
func TestCellOnFullAndBlockedGet(t *testing.T) {
	c := NewCell[int]()
	cont := make(chan int, 1)
	c.OnFull(func(v int) { cont <- v })
	got := make(chan int, 1)
	go func() { got <- c.Get() }()
	untilArmed(c)
	c.Put(11)
	if v := <-got; v != 11 {
		t.Errorf("blocked Get returned %d, want 11", v)
	}
	if v := <-cont; v != 11 {
		t.Errorf("continuation saw %d, want 11", v)
	}
}
