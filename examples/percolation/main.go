// Percolation example: the LITL-X latency-hiding construct on the
// simulated Cyclops-64-like machine — the same task set executed with
// percolation off and at increasing depths, across DRAM latencies.
//
//	go run ./examples/percolation
package main

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/c64"
	"repro/internal/percolate"
)

func main() {
	const nTasks = 32
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

	fmt.Println("virtual cycles to run 32 tasks (4x256B DRAM inputs, touched 4x):")
	fmt.Printf("%-10s", "dram_lat")
	depths := []int{0, 1, 2, 4, 8}
	for _, d := range depths {
		if d == 0 {
			fmt.Printf("  %10s", "off")
		} else {
			fmt.Printf("  depth=%-4d", d)
		}
	}
	fmt.Println()
	for _, lat := range []int64{20, 80, 320} {
		fmt.Printf("%-10d", lat)
		for _, depth := range depths {
			m := c64.New(c64.Config{UnitsPerNode: 8, DRAMLat: lat})
			e := percolate.New(m, percolate.Config{Workers: 2, Depth: depth})
			e.Launch(mkTasks())
			m.MustRun()
			fmt.Printf("  %10d", e.Result().Elapsed)
		}
		fmt.Println()
	}
	fmt.Println("\nthe adaptive rule would pick:")
	for _, lat := range []int64{20, 80, 320} {
		fmt.Printf("  dram=%d -> depth %d\n", lat, adapt.SuggestDepth(lat*4, 250, 16))
	}
}
