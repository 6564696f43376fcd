package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

const (
	// windows is how many equal timed windows one run is cut into; each
	// end-to-end metric is the median over them. The window length is
	// --seconds / windows, so it is the same on every commit.
	windows = 5
	// setupRounds is how many times a run boots and warms the stack; the
	// reported setup_s is their median and the last one is measured.
	setupRounds = 5
	// backlogSlack is how far the open loop's outstanding count may grow
	// across a window before the window counts as overloaded.
	backlogSlack = 8
)

// cpuNS reads the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// window is one timed window's readings.
type window struct {
	seconds    float64
	ok, failed uint64
	cpuNS      int64 // process CPU over the window
	lat        hist  // caller-observed latency of OK operations
	late       hist  // open loop: how late each request was sent
	overloaded bool  // open loop: the backlog grew, or the generator itself fell behind
}

func (w *window) throughput() float64 { return float64(w.ok) / w.seconds }
func (w *window) p50us() float64      { return w.lat.quantile(0.5) / 1e3 }
func (w *window) cpuPerOp() float64 {
	if w.ok == 0 {
		return 0
	}
	return float64(w.cpuNS) / 1e3 / float64(w.ok)
}

// warm runs the fixed warm-up: ops operations, closed loop, sequence
// numbers 0..ops-1 split between the clients. Every one must succeed.
func warm(in instance, ops int) error {
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := c; seq < ops; seq += clients {
				if !in.op(c, uint64(seq), nil) {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", n, ops)
	}
	return nil
}

// boot sets the workload up once: boot, register, join, warm-up, and
// for cluster workloads the placement check.
func boot(w workloadSpec, seed uint64, tr *tracer) (instance, error) {
	in, err := w.setup(seed, tr)
	if err != nil {
		return nil, err
	}
	if err := warm(in, w.warmOps); err != nil {
		in.close()
		return nil, err
	}
	if err := checkPlacement(w, seed, in.counters()); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// runClosed drives the closed loop: each client submits its next
// request when the previous one has completed. An operation belongs to
// the window it completes in. With a tracer the loop also stops when
// the trace records run out.
func runClosed(in instance, startSeq uint64, n int, length time.Duration, tr *tracer) []window {
	type clientWin struct {
		lat        hist
		ok, failed uint64
	}
	per := make([][]clientWin, clients)
	var cur atomic.Int32 // index of the open window; n once the run is over
	var full atomic.Bool // the trace records ran out
	capped := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		per[c] = make([]clientWin, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := startSeq + uint64(c); ; seq += clients {
				var rec *reqRec
				if tr != nil {
					if rec = tr.rec(seq); rec == nil {
						if !full.Swap(true) {
							close(capped)
						}
						return
					}
				}
				t0 := nowNS()
				ok := in.op(c, seq, rec)
				t2 := nowNS()
				k := int(cur.Load())
				if k >= n {
					return
				}
				cw := &per[c][k]
				if ok {
					cw.ok++
					cw.lat.record(t2 - t0)
				} else {
					cw.failed++
				}
			}
		}(c)
	}
	out := make([]window, 0, n)
	winStart, cpu := time.Now(), cpuNS()
	for k := 0; k < n && !full.Load(); k++ {
		select {
		case <-capped:
		case <-time.After(length - time.Since(winStart)):
		}
		if full.Load() {
			cur.Store(int32(n))
		} else {
			cur.Store(int32(k + 1))
		}
		end, cpuEnd := time.Now(), cpuNS()
		out = append(out, window{seconds: end.Sub(winStart).Seconds(), cpuNS: cpuEnd - cpu})
		winStart, cpu = end, cpuEnd
	}
	wg.Wait()
	for k := range out {
		for c := range per {
			out[k].ok += per[c][k].ok
			out[k].failed += per[c][k].failed
			out[k].lat.merge(&per[c][k].lat)
		}
	}
	return out
}

// olSlot is one open-loop request: when it was due, when it was really
// sent, when its completion callback ran.
type olSlot struct {
	due, sent, done int64
	ok              bool
	rec             *reqRec
	fn              func(serve.Result)
}

// schedule generates the open loop's intended send times: Poisson
// arrivals at rate per second over the given span, as offsets in
// nanoseconds, a pure function of the seed.
func schedule(seed uint64, rate float64, span time.Duration) []int64 {
	r := rng{s: seed ^ 0x6f70656e6c6f6f70} // "openloop"
	var out []int64
	t := 0.0
	for {
		t += -math.Log(r.float()) / rate
		if t >= span.Seconds() {
			return out
		}
		out = append(out, int64(t*1e9))
	}
}

// openLoop drives solo-work: requests go out on the schedule whether or
// not earlier ones have completed, and latency counts from the intended
// send time, so a stalled generator or a queue shows as latency instead
// of hiding. Timer sleeps here are a millisecond coarse, against a 250µs
// mean gap, so the generator sleeps only to 2 ms before a request is
// due and then yields in a loop until it is. That loop keeps one core
// busy, and its CPU cannot be told from the program's: cpu_us_per_op on
// this workload includes the generator.
type openLoop struct {
	s         *soloInst
	startSeq  uint64
	n         int
	length    time.Duration
	tr        *tracer
	sched     []int64
	slots     []olSlot
	completed atomic.Int64
}

// newOpenLoop prepares the schedule and the per-request slots, so the
// run itself allocates nothing per request.
func newOpenLoop(s *soloInst, seed, startSeq uint64, n int, length time.Duration, tr *tracer) *openLoop {
	o := &openLoop{s: s, startSeq: startSeq, n: n, length: length, tr: tr,
		sched: schedule(seed, openRate, time.Duration(n)*length)}
	o.slots = make([]olSlot, len(o.sched))
	for i := range o.slots {
		sl := &o.slots[i]
		sl.fn = func(r serve.Result) {
			sl.done = nowNS()
			sl.ok = r.Status == serve.StatusOK && r.Value == nil
			if rec := sl.rec; rec != nil {
				rec.t2, rec.wait, rec.total, rec.ok = sl.done, int64(r.Wait), int64(r.Total), sl.ok
			}
			o.completed.Add(1)
		}
	}
	return o
}

func (o *openLoop) run() ([]window, error) {
	n, length, sched, slots := o.n, o.length, o.sched, o.slots
	out := make([]window, n)
	backlog := make([]int64, n+1)
	marked := make([]int64, n+1) // when the generator crossed each window boundary
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		base := nowNS() + int64(time.Millisecond)
		k := 0
		// mark reads the backlog and the process CPU clock at window
		// boundary k.
		mark := func(submitted int) int64 {
			backlog[k], marked[k] = int64(submitted)-o.completed.Load(), nowNS()
			return cpuNS()
		}
		cpu := mark(0)
		for i := range slots {
			sl := &slots[i]
			for k < n-1 && sched[i] >= int64(k+1)*int64(length) {
				k++
				c2 := mark(i)
				out[k-1].cpuNS, cpu = c2-cpu, c2
			}
			sl.due = base + sched[i]
			for now := nowNS(); now < sl.due; now = nowNS() {
				if d := sl.due - now; d > int64(2*time.Millisecond) {
					time.Sleep(time.Duration(d) - 2*time.Millisecond)
				} else {
					runtime.Gosched()
				}
			}
			seq := o.startSeq + uint64(i)
			sl.rec = o.tr.rec(seq)
			sl.sent = nowNS()
			if sl.rec != nil {
				sl.rec.due, sl.rec.t0 = sl.due, sl.sent
			}
			err := o.s.tn.SubmitFunc(o.s.request(seq, sl.rec), sl.fn)
			if sl.rec != nil {
				sl.rec.t1 = nowNS()
			}
			if err != nil {
				sl.done = nowNS()
				o.completed.Add(1)
			}
		}
		for end := base + int64(n)*int64(length); nowNS() < end; {
			time.Sleep(time.Millisecond)
		}
		k = n
		out[n-1].cpuNS = mark(len(slots)) - cpu
	}()
	gen.Wait()
	for deadline := time.Now().Add(5 * time.Second); o.completed.Load() < int64(len(slots)); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("open loop: %d of %d requests never completed", int64(len(slots))-o.completed.Load(), len(slots))
		}
		time.Sleep(time.Millisecond)
	}
	for i := range slots {
		sl := &slots[i]
		w := &out[min(int(sched[i]/int64(length)), n-1)]
		if !sl.ok {
			w.failed++
			continue
		}
		w.ok++
		w.lat.record(sl.done - sl.due)
		w.late.record(sl.sent - sl.due)
	}
	for k := range out {
		w := &out[k]
		w.seconds = float64(marked[k+1]-marked[k]) / 1e9
		w.overloaded = backlog[k+1] > backlog[k]+backlogSlack || w.late.quantile(0.5) > w.lat.quantile(0.5)/10
	}
	return out, nil
}

// phase is one stretch of traffic on a booted instance with what was
// read around it.
type phase struct {
	wins          []window
	before, after layerCounters
	mallocs       uint64 // heap allocations of the whole process, harness included
}

func (p *phase) ops() (ok, failed uint64) {
	for _, w := range p.wins {
		ok += w.ok
		failed += w.failed
	}
	return ok, failed
}

func (p *phase) seconds() (s float64) {
	for _, w := range p.wins {
		s += w.seconds
	}
	return s
}

// measure runs n timed windows on a booted instance (traced when tr is
// non-nil), then checks conservation.
func measure(w workloadSpec, in instance, seed uint64, n int, length time.Duration, tr *tracer) (*phase, error) {
	startSeq := uint64(w.warmOps)
	var open *openLoop
	if w.open {
		open = newOpenLoop(in.(*soloInst), seed, startSeq, n, length, tr)
	}
	var m0, m1 runtime.MemStats
	ph := &phase{before: in.counters()}
	runtime.ReadMemStats(&m0)
	tr.arm(startSeq)
	if open != nil {
		var err error
		if ph.wins, err = open.run(); err != nil {
			return nil, err
		}
	} else {
		ph.wins = runClosed(in, startSeq, n, length, tr)
	}
	tr.disarm()
	runtime.ReadMemStats(&m1)
	if err := in.conserve(); err != nil {
		return nil, err
	}
	ph.after, ph.mallocs = in.counters(), m1.Mallocs-m0.Mallocs
	if ok, _ := ph.ops(); ok == 0 {
		return nil, errors.New("no operation completed in the timed windows")
	}
	return ph, nil
}
