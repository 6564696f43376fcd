package percolate

import (
	"testing"

	"repro/internal/c64"
)

// mkTasks builds n identical tasks whose inputs live in DRAM.
func mkTasks(n, blocks, size int, compute int64, touches int) []*Task {
	tasks := make([]*Task, n)
	for i := range tasks {
		t := &Task{Compute: compute, Touches: touches}
		for b := 0; b < blocks; b++ {
			t.Inputs = append(t.Inputs, Block{
				Addr: c64.Addr{Node: 0, Region: c64.DRAM, Line: int64(i*blocks + b)},
				Size: size,
			})
		}
		tasks[i] = t
	}
	return tasks
}

func runEngine(t *testing.T, cfg Config, tasks []*Task) Result {
	t.Helper()
	m := c64.New(c64.Config{UnitsPerNode: cfg.Workers + 4})
	e := New(m, cfg)
	e.Launch(tasks)
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.Result()
}

func TestBaselineCompletesAllTasks(t *testing.T) {
	res := runEngine(t, Config{Workers: 2, Depth: 0}, mkTasks(10, 2, 64, 100, 1))
	if res.Tasks != 10 {
		t.Errorf("Tasks = %d", res.Tasks)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed should be positive")
	}
	if res.Staged != 0 {
		t.Errorf("baseline staged %d tasks, want 0", res.Staged)
	}
}

func TestPercolatedCompletesAllTasks(t *testing.T) {
	res := runEngine(t, Config{Workers: 2, Depth: 4}, mkTasks(10, 2, 64, 100, 1))
	if res.Staged != 10 {
		t.Errorf("Staged = %d, want 10", res.Staged)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed should be positive")
	}
}

func TestPercolationHidesLatency(t *testing.T) {
	// With repeated touches of DRAM-resident blocks, staging into SRAM
	// must win despite the copy cost.
	tasks := func() []*Task { return mkTasks(32, 4, 256, 200, 4) }
	base := runEngine(t, Config{Workers: 2, Depth: 0}, tasks())
	perc := runEngine(t, Config{Workers: 2, Depth: 8}, tasks())
	if perc.Elapsed >= base.Elapsed {
		t.Errorf("percolated (%d) should beat baseline (%d)", perc.Elapsed, base.Elapsed)
	}
}

func TestDeeperPercolationNoWorse(t *testing.T) {
	tasks := func() []*Task { return mkTasks(32, 4, 256, 500, 2) }
	shallow := runEngine(t, Config{Workers: 2, Depth: 1}, tasks())
	deep := runEngine(t, Config{Workers: 2, Depth: 8}, tasks())
	if deep.Elapsed > shallow.Elapsed {
		t.Errorf("depth 8 (%d) slower than depth 1 (%d)", deep.Elapsed, shallow.Elapsed)
	}
}

func TestRemoteInputsPercolation(t *testing.T) {
	// Inputs homed on a remote node: percolation pulls them across the
	// network once instead of per touch.
	mk := func() []*Task {
		tasks := mkTasks(16, 2, 128, 100, 3)
		for _, tk := range tasks {
			for i := range tk.Inputs {
				tk.Inputs[i].Addr.Node = 1
			}
		}
		return tasks
	}
	run := func(depth int) Result {
		m := c64.New(c64.MultiNodeConfig(2))
		e := New(m, Config{Workers: 2, Depth: depth})
		e.Launch(mk())
		if _, err := m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.Result()
	}
	base := run(0)
	perc := run(6)
	if perc.Elapsed >= base.Elapsed {
		t.Errorf("remote percolation (%d) should beat baseline (%d)", perc.Elapsed, base.Elapsed)
	}
}

func TestResultStageWaitAccounted(t *testing.T) {
	// One worker, slow staging: the worker must record waiting time.
	tasks := mkTasks(8, 8, 1024, 10, 1)
	res := runEngine(t, Config{Workers: 1, Depth: 1}, tasks)
	if res.StageWait <= 0 {
		t.Errorf("StageWait = %d, want > 0 when staging is the bottleneck", res.StageWait)
	}
}
