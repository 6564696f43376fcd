// Quickstart: boot a LITL-X system, touch every construct class once.
//
//	go run ./examples/quickstart
//
// It spawns a coarse-grain thread (LGT), fans work out as small-grain
// threads (SGTs), wires tiny-grain fibers (TGTs) through dataflow sync
// slots, ships a parcel to another locale, chains futures, runs an
// adaptively scheduled parallel loop, and serves five requests
// through the job service layer's tenant-handle API.
package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/future"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

func main() {
	sys, err := litlx.New(litlx.Config{
		Locales:          2,
		WorkersPerLocale: 4,
		// The domain expert suggests factoring for our loop.
		Script: "hint loops target=compiler category=computation-pattern priority=60 strategy=factoring chunk=4",
	})
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	// 1. Coarse-grain multithreading: an LGT with private memory.
	lgt := sys.SpawnLGT(0, func(l *core.LGT) {
		buf := l.Heap().Alloc(128)
		buf[0] = 42
		fmt.Printf("LGT %d on locale %d: private heap ready (%d bytes used)\n",
			l.ID(), l.Locale(), l.Heap().Used())
	})
	lgt.Done().Get()

	// 2. Dataflow fibers (TGTs) inside one SGT frame.
	var fiberResult atomic.Int64
	sgt := sys.RT.GoAt(0, 64, func(s *core.SGT) {
		frame := s.Frame()
		sum := s.NewFiber(2, func(f *core.Fiber) {
			fiberResult.Store(int64(frame[0]) + int64(frame[1]))
		})
		s.NewFiber(0, func(f *core.Fiber) { frame[0] = 40; sum.Signal() })
		s.NewFiber(0, func(f *core.Fiber) { frame[1] = 2; sum.Signal() })
	})
	sgt.Done().Get()
	fmt.Printf("TGT dataflow: producers fed consumer through the frame -> %d\n", fiberResult.Load())

	// 3. Parcels: move the work to locale 1 and get the reply back.
	sys.Net.Register("square", func(c *parcel.Ctx) interface{} {
		v := c.Payload.(int)
		return v * v
	})
	reply := make(chan int, 1)
	sys.Net.Call(0, 1, "square", 12, func(s *core.SGT, v interface{}) {
		reply <- v.(int)
	})
	fmt.Printf("parcel: square(12) computed at locale 1 -> %d\n", <-reply)

	// 4. Futures: eager, chained, gathered.
	futs := make([]*future.Future[int], 8)
	for i := range futs {
		i := i
		futs[i] = future.Spawn(sys.RT, i%2, func() int { return i * i })
	}
	total := 0
	for _, v := range future.All(futs...).Get() {
		total += v
	}
	fmt.Printf("futures: sum of squares 0..7 -> %d\n", total)

	// 5. Adaptive parallel loop (strategy comes from the hint script).
	var loopSum atomic.Int64
	sys.ParallelFor("quickstart-loop", 1000, func(i int) {
		loopSum.Add(int64(i))
	})
	sys.Wait()
	fmt.Printf("parallel for: sum 0..999 -> %d\n", loopSum.Load())

	// 6. The serving layer: register a tenant once, get a handle, and
	// submit through it — no per-request name lookup. Middleware wraps
	// the handler; each Submit admits one request with one tail CAS on
	// its shard's ring.
	srv := serve.New(sys, serve.Config{Shards: 2})
	var served atomic.Int64
	counting := func(next serve.Handler) serve.Handler {
		return func(ctx *serve.Ctx, req serve.Request) (any, error) {
			served.Add(1)
			return next(ctx, req)
		}
	}
	cubes, err := srv.RegisterTenant(serve.TenantConfig{
		Name:       "cubes",
		Middleware: []serve.Middleware{counting},
		Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
			return req.Key * req.Key * req.Key, nil
		},
	})
	if err != nil {
		panic(err)
	}
	tickets := make([]*serve.Ticket, 5)
	for i := range tickets {
		if tickets[i], err = cubes.Submit(serve.Request{Key: uint64(i + 1)}); err != nil {
			panic(err)
		}
	}
	sum := uint64(0)
	for _, tk := range tickets {
		if res := tk.Wait(); res.Status == serve.StatusOK {
			sum += res.Value.(uint64)
		}
	}
	srv.Close()
	fmt.Printf("serve: sum of cubes 1..5 -> %d (%d through middleware)\n", sum, served.Load())

	// 7. The monitor saw all of it.
	rep := sys.Snapshot()
	fmt.Printf("monitor: %d SGTs spawned, %d fibers run\n",
		rep.Counters["core.sgt.spawn"], rep.Counters["core.tgt.run"])
}
