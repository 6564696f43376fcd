package serve

import (
	"testing"

	"repro/internal/percolate"
)

// TestTransferCyclesMatchesPercolationModels pins the closed-form
// transfer price to the two-node Cyclops-64 percolation models it
// stands for: over a sweep of block sizes, and at the sizes this repo
// registers (512-byte globals, 2 KiB cluster code images, htserved's
// 1 MiB default image, exp V1's 2 MiB probe), the code and data models
// agree, and transferCycles and transferUnits equal what the models
// charge. A change to the simulated machine that moves either model
// fails here.
func TestTransferCyclesMatchesPercolationModels(t *testing.T) {
	sizes := []int{512, 2 << 10, 1 << 20, 2 << 20}
	for n := 0; n <= 70000; n += 1 + n/50 {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		code := percolate.ModelCode(n).TransferCycles()
		if data := percolate.ModelData(n).TransferCycles(); data != code {
			t.Errorf("size %d: code model %d cycles, data model %d", n, code, data)
		}
		if got := transferCycles(n); got != code {
			t.Errorf("transferCycles(%d) = %d, models charge %d", n, got, code)
		}
		if got, want := transferUnits(n), TransferSpinUnits(code); got != want {
			t.Errorf("transferUnits(%d) = %d spin units, models charge %d", n, got, want)
		}
	}
}
