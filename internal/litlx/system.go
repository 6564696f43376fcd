// Package litlx is the LITL-X surface: the "Latency Intrinsic-Tolerant
// Language" of Section 3.2, realized as a library API plus a small
// script front-end. Its five construct classes map onto the packages of
// this repository:
//
//   - coarse-grain multithreading with in-application context switching
//     -> core.LGT (System.SpawnLGT);
//   - parcel-driven split-transaction computation -> parcel.Net
//     (System.Net);
//   - futures with localized request buffering -> internal/future;
//   - percolation of code/data ahead of computation -> internal/percolate
//     (simulator-backed);
//   - dataflow synchronization and atomic memory blocks -> core fibers
//     and syncx.AtomicTable.
//
// System wires these together with the knowledge database, monitor,
// continuous compiler and the loop, load and locality controllers, so
// an application touches one object.
package litlx

import (
	"repro/internal/adapt"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/hints"
	"repro/internal/loopir"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/parcel"
	"repro/internal/sched"
)

// Config configures a LITL-X system.
type Config struct {
	// Locales is the number of nodes (default 1).
	Locales int
	// WorkersPerLocale sizes the SGT pool (default GOMAXPROCS-derived).
	WorkersPerLocale int
	// Script is an optional hints script applied at startup.
	Script string
	// Seed fixes scheduling randomness for reproducible runs.
	Seed uint64
}

// System is a running LITL-X instance.
type System struct {
	RT    *core.Runtime
	Net   *parcel.Net
	Space *mem.Space
	DB    *hints.DB
	Mon   *monitor.Monitor
	Comp  *compiler.Compiler

	Loops    *adapt.LoopController
	Load     *adapt.LoadController
	Locality *adapt.LocalityManager
}

// New boots a system. Close it with Close.
func New(cfg Config) (*System, error) {
	if cfg.Locales <= 0 {
		cfg.Locales = 1
	}
	mon := monitor.New()
	rt := core.NewRuntime(core.Config{
		Locales:          cfg.Locales,
		WorkersPerLocale: cfg.WorkersPerLocale,
		Monitor:          mon,
		Seed:             cfg.Seed,
	})
	db := hints.NewDB()
	if cfg.Script != "" {
		if err := hints.ParseScriptString(cfg.Script, db); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	// The global space's access cost: a ring with local latency 10, hop
	// latency 40, one unit per 8 bytes.
	space := mem.NewSpace(cfg.Locales, mem.RingCost{LocalLat: 10, HopLat: 40, ByteCost: 1})
	s := &System{
		RT:       rt,
		Net:      parcel.NewNet(rt),
		Space:    space,
		DB:       db,
		Mon:      mon,
		Comp:     compiler.New(db, loopir.DefaultResources(), mon),
		Loops:    adapt.NewLoopController(db),
		Load:     adapt.NewLoadController(),
		Locality: adapt.NewLocalityManager(space),
	}
	return s, nil
}

// Close waits for quiescence and stops the runtime.
func (s *System) Close() { s.RT.Shutdown() }

// Wait blocks until all outstanding threads have completed.
func (s *System) Wait() { s.RT.Wait() }

// SpawnLGT starts a coarse-grain thread (LITL-X construct 1).
func (s *System) SpawnLGT(locale int, fn func(*core.LGT)) *core.LGT {
	return s.RT.SpawnLGT(locale, fn)
}

// Go spawns a small-grain thread at locale 0.
func (s *System) Go(fn func(*core.SGT)) *core.SGT { return s.RT.Go(fn) }

// GoAt spawns a small-grain thread homed at the given locale.
func (s *System) GoAt(locale int, fn func(*core.SGT)) *core.SGT {
	return s.RT.GoAt(locale, 0, fn)
}

// Locales returns the number of locales the system was booted with.
func (s *System) Locales() int { return s.RT.Config().Locales }

// ParallelFor executes body over [0, n) using the hint-resolved,
// adaptively tuned scheduling strategy for the named loop, recording a
// profile and retuning the grain for the next execution.
func (s *System) ParallelFor(name string, n int, body func(i int)) {
	p := s.RT.Workers()
	factory := s.Loops.FactoryFor(name)
	prof := s.Loops.Adaptive(name).Profile()
	sched.RunSGT(s.RT, n, p, factory, prof, body)
	s.Loops.Retune(name, n, p)
	s.Mon.Counter("litlx.loops").Inc()
}

// Snapshot publishes the current monitor state into the knowledge
// database and returns it — the monitoring/feedback hop of Fig. 1.
func (s *System) Snapshot() monitor.Report {
	rep := s.Mon.Snapshot()
	s.DB.ImportFacts(rep.Counters, rep.EWMAs)
	return rep
}
