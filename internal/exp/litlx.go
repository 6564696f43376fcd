package exp

import (
	"sync"

	"repro/internal/c64"
	"repro/internal/core"
	"repro/internal/future"
	"repro/internal/percolate"
	"repro/internal/stats"
	"repro/internal/syncx"
)

func init() {
	register("L1", ExpL1Parcels)
	register("L2", ExpL2Futures)
	register("L3", ExpL3Percolation)
	register("L4", ExpL4Sync)
}

// ExpL1Parcels regenerates the parcel claim of Section 3.2: moving the
// work to the data beats fetching the data once the data outweighs the
// parcel, with a crossover at small sizes. A reduction over an array
// homed on a remote node, three ways, on the simulator.
func ExpL1Parcels(scale int) *Result {
	res := newResult("L1", "EXP-L1: parcels (move work to data) vs remote fetch, by data size",
		"bytes", "variant", "cycles")
	_ = scale
	for _, bytes := range []int{64, 512, 4096, 32768} {
		blocks := bytes / 64

		// (a) Naive blocking fetch: load each 64-byte block remotely.
		naive := func() int64 {
			m := c64.New(c64.MultiNodeConfig(2))
			m.Spawn(0, func(tu *c64.TU) {
				for b := 0; b < blocks; b++ {
					tu.Load(c64.Addr{Node: 1, Region: c64.DRAM, Line: int64(b)}, 64)
					tu.Compute(4)
				}
			})
			return m.MustRun()
		}()
		res.Table.AddRow(bytes, "remote-fetch/blocking", naive)

		// (b) Bulk fetch: one MemCopy then local compute.
		bulk := func() int64 {
			m := c64.New(c64.MultiNodeConfig(2))
			m.Spawn(0, func(tu *c64.TU) {
				tu.MemCopy(tu.Local(c64.SRAM, 0), c64.Addr{Node: 1, Region: c64.DRAM}, bytes)
				for b := 0; b < blocks; b++ {
					tu.Load(tu.Local(c64.SRAM, int64(b)), 64)
					tu.Compute(4)
				}
			})
			return m.MustRun()
		}()
		res.Table.AddRow(bytes, "remote-fetch/bulk", bulk)

		// (c) Parcel: ship the reduction to the data's node; the handler
		// stages DRAM into SRAM locally (no network) exactly as the bulk
		// fetch does remotely, and only the 8-byte result crosses the
		// network. The comparison is therefore staging-for-staging; what
		// differs is which side of the wire the bytes travel on.
		parcelCycles := func() int64 {
			m := c64.New(c64.MultiNodeConfig(2))
			net := percolate.NewSimNet(m)
			net.Register("reduce", func(tu *c64.TU, from int, payload int64) int64 {
				tu.MemCopy(tu.Local(c64.SRAM, 0), tu.Local(c64.DRAM, 0), bytes)
				for b := 0; b < blocks; b++ {
					tu.Load(tu.Local(c64.SRAM, int64(b)), 64)
					tu.Compute(4)
				}
				return 1
			})
			m.Spawn(0, func(tu *c64.TU) {
				net.Call(tu, 1, "reduce", 0)
				net.Stop()
			})
			return m.MustRun()
		}()
		res.Table.AddRow(bytes, "parcel", parcelCycles)

		if bytes == 32768 {
			res.Metrics["parcel_speedup_32k"] = stats.Speedup(float64(naive), float64(parcelCycles))
		}
		if bytes == 64 {
			res.Metrics["parcel_speedup_64"] = stats.Speedup(float64(naive), float64(parcelCycles))
		}
	}
	return res
}

// ExpL2Futures regenerates the futures claim: eager producer-consumer
// chains with request buffering at the value site, against sequential
// execution and a goroutine-per-node channel version, on a reduction
// tree. Native wall clock.
func ExpL2Futures(scale int) *Result {
	res := newResult("L2", "EXP-L2: futures, eager tree reduction vs sequential vs channels",
		"leaves", "variant", "time_ms", "result")
	work := int64(20)

	for _, leaves := range []int{64, 256 * scale} {
		// Sequential.
		var seqSum int64
		seqMS := timeIt(func() {
			seqSum = 0
			for i := 0; i < leaves; i++ {
				spinWork(work)
				seqSum += int64(i)
			}
		})
		res.Table.AddRow(leaves, "sequential", seqMS, seqSum)

		// Futures on the HTVM runtime: one eager future per leaf,
		// combined through All (continuations buffered at the cells).
		rt := core.NewRuntime(core.Config{WorkersPerLocale: 8})
		var futSum int64
		futMS := timeIt(func() {
			fs := make([]*future.Future[int64], leaves)
			for i := 0; i < leaves; i++ {
				i := i
				fs[i] = future.Spawn(rt, 0, func() int64 {
					spinWork(work)
					return int64(i)
				})
			}
			futSum = 0
			for _, v := range future.All(fs...).Get() {
				futSum += v
			}
			rt.Wait()
		})
		rt.Shutdown()
		res.Table.AddRow(leaves, "futures", futMS, futSum)

		// Plain goroutines + channel fan-in (the non-buffered strawman).
		var chSum int64
		chMS := timeIt(func() {
			ch := make(chan int64)
			var wg sync.WaitGroup
			for i := 0; i < leaves; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					spinWork(work)
					ch <- int64(i)
				}()
			}
			go func() { wg.Wait(); close(ch) }()
			chSum = 0
			for v := range ch {
				chSum += v
			}
		})
		res.Table.AddRow(leaves, "goroutine+chan", chMS, chSum)

		if seqSum != futSum || seqSum != chSum {
			panic("exp: L2 reduction results disagree")
		}
		if leaves >= 256 {
			res.Metrics["future_speedup"] = stats.Speedup(seqMS, futMS)
		}
	}
	return res
}

// ExpL3Percolation regenerates the percolation claim: staging working
// sets ahead of execution hides memory latency; benefit grows with
// depth up to the balance point. Deterministic virtual cycles.
func ExpL3Percolation(scale int) *Result {
	res := newResult("L3", "EXP-L3: percolation depth sweep (virtual cycles)",
		"depth", "cycles", "stage_wait", "staged")
	nTasks := 32 * scale
	mkTasks := func() []*percolate.Task {
		tasks := make([]*percolate.Task, nTasks)
		for i := range tasks {
			t := &percolate.Task{Compute: 250, Touches: 4}
			for b := 0; b < 4; b++ {
				t.Inputs = append(t.Inputs, percolate.Block{
					Addr: c64.Addr{Node: 0, Region: c64.DRAM, Line: int64(i*4 + b)},
					Size: 256,
				})
			}
			tasks[i] = t
		}
		return tasks
	}
	var off, best int64
	for _, depth := range []int{0, 1, 2, 4, 8} {
		m := c64.New(c64.Config{UnitsPerNode: 8})
		e := percolate.New(m, percolate.Config{Workers: 2, Depth: depth})
		e.Launch(mkTasks())
		m.MustRun()
		r := e.Result()
		res.Table.AddRow(depth, r.Elapsed, r.StageWait, r.Staged)
		if depth == 0 {
			off = r.Elapsed
		}
		if best == 0 || r.Elapsed < best {
			best = r.Elapsed
		}
	}
	res.Metrics["percolation_speedup"] = stats.Speedup(float64(off), float64(best))
	return res
}

// ExpL4Sync regenerates the synchronization-construct claims: striped
// atomic blocks scale where a global lock serializes, and dataflow
// sync-slot chains express dependence without blocked waiters. Native
// wall clock.
func ExpL4Sync(scale int) *Result {
	res := newResult("L4", "EXP-L4: atomic blocks and dataflow sync",
		"construct", "variant", "time_ms", "checksum")
	const buckets = 1024
	updates := 40000 * scale
	const workers = 8

	runHistogram := func(stripes int) (float64, int64) {
		hist := make([]int64, buckets)
		tab := syncx.NewAtomicTable(stripes)
		r := stats.NewRNG(77)
		keys := make([]uint64, updates)
		for i := range keys {
			keys[i] = uint64(r.Intn(buckets))
		}
		var wg sync.WaitGroup
		ms := timeIt(func() {
			per := updates / workers
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w * per; i < (w+1)*per; i++ {
						k := keys[i]
						tab.Atomic1(k, func() { hist[k]++ })
					}
				}()
			}
			wg.Wait()
		})
		var sum int64
		for _, h := range hist {
			sum += h
		}
		return ms, sum
	}
	globalMS, globalSum := runHistogram(1)
	res.Table.AddRow("atomic-histogram", "global-lock", globalMS, globalSum)
	stripedMS, stripedSum := runHistogram(256)
	res.Table.AddRow("atomic-histogram", "striped/256", stripedMS, stripedSum)
	if globalSum != stripedSum {
		panic("exp: L4 histogram totals disagree")
	}
	res.Metrics["striping_speedup"] = stats.Speedup(globalMS, stripedMS)

	// Dataflow chain: n stages, each enabled by its predecessor's
	// signal, on one SGT frame — versus a goroutine+channel pipeline.
	nStages := 20000 * scale
	rt := core.NewRuntime(core.Config{WorkersPerLocale: 4})
	var last int64
	fiberMS := timeIt(func() {
		done := make(chan int64, 1)
		rt.GoAt(0, 8, func(s *core.SGT) {
			var mk func(i int, acc int64) *core.Fiber
			mk = func(i int, acc int64) *core.Fiber {
				return s.NewFiber(1, func(f *core.Fiber) {
					if i == nStages-1 {
						done <- acc + 1
						return
					}
					mk(i+1, acc+1).Signal()
				})
			}
			mk(0, 0).Signal()
		})
		last = <-done
		rt.Wait()
	})
	rt.Shutdown()
	res.Table.AddRow("dependence-chain", "tgt-fibers", fiberMS, last)

	chanMS := timeIt(func() {
		in := make(chan int64, 1)
		cur := in
		for i := 0; i < nStages; i++ {
			out := make(chan int64, 1)
			go func(in, out chan int64) { out <- <-in + 1 }(cur, out)
			cur = out
		}
		in <- 0
		last = <-cur
	})
	res.Table.AddRow("dependence-chain", "goroutine+chan", chanMS, last)
	res.Metrics["fiber_chain_ms"] = fiberMS
	return res
}
