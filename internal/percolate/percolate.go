// Package percolate implements LITL-X percolation (Section 3.2, after
// Jacquet et al.'s percolation model for HTMT): program data blocks are
// moved to fast memory at the site of the intended computation before
// the computation is enabled, "to eliminate waiting for remote
// accesses, which are determined at run time prior to actual block
// execution".
//
// The engine runs on the Cyclops-64-like simulator: a stager tasklet
// copies each task's declared working set from DRAM (or a remote node)
// into on-chip SRAM, keeping up to Depth tasks staged ahead of the
// workers; worker tasklets execute only tasks whose data has arrived,
// so their loads hit fast memory. Setting Depth to zero disables
// percolation (workers access slow memory directly) — the baseline for
// the latency-adaptation experiments.
//
// The package also holds SimNet, the parcel network of the simulated
// machine, and the code and data transfer models run on it (ModelCode,
// ModelData). Experiments and tests use them; the serving build does
// not link this package.
package percolate

import (
	"repro/internal/c64"
)

// Block names one contiguous piece of a task's working set.
type Block struct {
	Addr c64.Addr // where the data lives (typically DRAM or remote)
	Size int      // bytes
}

// Task is one unit of percolated computation.
type Task struct {
	// Inputs is the working set staged before execution.
	Inputs []Block
	// Compute is the pure computation cost in cycles once inputs are
	// available.
	Compute int64
	// Touches is how many times the body reads each input block during
	// execution (default 1): re-reads magnify the benefit of staging.
	Touches int
}

// Config parameterizes an engine run.
type Config struct {
	// Node is the node the tasks execute on.
	Node int
	// Workers is the number of worker tasklets (default 4).
	Workers int
	// Depth is the maximum number of tasks staged ahead (0 disables
	// percolation).
	Depth int
	// StageRegion is where staged copies land (default SRAM).
	StageRegion c64.Region
}

// Result reports a completed engine run.
type Result struct {
	Elapsed   int64 // virtual cycles from launch to last task completion
	Tasks     int
	Staged    int   // tasks that ran from staged data
	StageWait int64 // cycles workers waited for staging
}

// Engine percolates and executes a fixed task list on one node.
type Engine struct {
	m   *c64.Machine
	cfg Config
	res Result
}

// New creates an engine on m.
func New(m *c64.Machine, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.StageRegion == 0 {
		cfg.StageRegion = c64.SRAM
	}
	return &Engine{m: m, cfg: cfg}
}

// Launch schedules the engine's tasklets; the caller then drives the
// simulation with m.Run() and reads Result afterwards.
func (e *Engine) Launch(tasks []*Task) {
	e.res = Result{Tasks: len(tasks)}
	start := e.m.Now()
	if e.cfg.Depth <= 0 {
		e.launchBaseline(tasks, start)
		return
	}
	e.launchPercolated(tasks, start)
}

// Result returns the outcome of the last completed run (valid after
// m.Run has drained).
func (e *Engine) Result() Result { return e.res }

// launchBaseline runs tasks without staging: bodies load inputs from
// their home locations every touch.
func (e *Engine) launchBaseline(tasks []*Task, start int64) {
	node := e.cfg.Node
	work := c64.NewChan[*Task](e.m, 0)
	wg := c64.NewWG(e.m)
	wg.Add(len(tasks))
	for _, t := range tasks {
		work.Send(t)
	}
	for w := 0; w < e.cfg.Workers; w++ {
		e.m.SpawnAfter(node, 0, func(tu *c64.TU) {
			for {
				t, ok := work.TryRecv()
				if !ok {
					return
				}
				touches := t.Touches
				if touches <= 0 {
					touches = 1
				}
				for k := 0; k < touches; k++ {
					for _, b := range t.Inputs {
						tu.Load(b.Addr, b.Size)
					}
				}
				tu.Compute(t.Compute)
				wg.Done()
			}
		})
	}
	e.m.SpawnAfter(node, 0, func(tu *c64.TU) {
		wg.Wait(tu)
		e.res.Elapsed = tu.Now() - start
	})
}

// launchPercolated runs the stager + workers pipeline.
func (e *Engine) launchPercolated(tasks []*Task, start int64) {
	node := e.cfg.Node
	// Buffers bound how far staging runs ahead (percolation depth).
	buffers := c64.NewSem(e.m, e.cfg.Depth)
	ready := c64.NewChan[*Task](e.m, 0)
	wg := c64.NewWG(e.m)
	wg.Add(len(tasks))

	// Stager: one tasklet that copies working sets into the stage
	// region, overlapping with worker execution.
	e.m.SpawnAfter(node, 0, func(tu *c64.TU) {
		for i, t := range tasks {
			buffers.Acquire(tu)
			for bi, b := range t.Inputs {
				dst := c64.Addr{Node: node, Region: e.cfg.StageRegion, Line: int64(i*8 + bi)}
				tu.MemCopy(dst, b.Addr, b.Size)
			}
			ready.Send(t)
		}
	})

	for w := 0; w < e.cfg.Workers; w++ {
		e.m.SpawnAfter(node, 0, func(tu *c64.TU) {
			for {
				t0 := tu.Now()
				t := ready.Recv(tu)
				if t == nil { // poison: all tasks done
					return
				}
				e.res.StageWait += tu.Now() - t0
				e.res.Staged++
				touches := t.Touches
				if touches <= 0 {
					touches = 1
				}
				for k := 0; k < touches; k++ {
					for range t.Inputs {
						tu.Load(tu.Local(e.cfg.StageRegion, int64(k)), 8)
					}
				}
				tu.Compute(t.Compute)
				buffers.Release()
				wg.Done()
			}
		})
	}
	workers := e.cfg.Workers
	e.m.SpawnAfter(node, 0, func(tu *c64.TU) {
		wg.Wait(tu)
		e.res.Elapsed = tu.Now() - start
		for i := 0; i < workers; i++ {
			ready.Send(nil) // release idle workers so the machine quiesces
		}
	})
}
