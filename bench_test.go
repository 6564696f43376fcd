package htvm_test

import (
	"testing"

	"repro/internal/exp"
)

// benchExp wraps one experiment from the harness as a Go benchmark: the
// experiment runs once per b.N iteration and its headline metrics are
// attached via b.ReportMetric, so `go test -bench` regenerates every
// table/figure series that cmd/htvmbench prints (see README.md's
// Commands section; ROADMAP.md's item "a paper-to-code ledger, then a
// prune" plans the ledger that will index them).
func benchExp(b *testing.B, id string) {
	b.Helper()
	var last *exp.Result
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(id, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for k, v := range last.Metrics {
		b.ReportMetric(v, k)
	}
	if testing.Verbose() {
		b.Log("\n" + last.Table.String())
	}
}

// Fig. 1: the whole software stack end to end.
func BenchmarkExpF1Pipeline(b *testing.B) { benchExp(b, "F1") }

// Fig. 2: neuron network, flat vs hierarchical threading.
func BenchmarkExpF2Hierarchy(b *testing.B) { benchExp(b, "F2") }

// Fig. 3: domain hints, unhinted vs hinted mapping.
func BenchmarkExpF3Hints(b *testing.B) { benchExp(b, "F3") }

// Section 2, adaptivity class 1: loop parallelism adaptation.
func BenchmarkExpA1LoopAdapt(b *testing.B) { benchExp(b, "A1") }

// Section 2, adaptivity class 2: dynamic load adaptation.
func BenchmarkExpA2LoadBalance(b *testing.B) { benchExp(b, "A2") }

// Section 2, adaptivity class 3: locality adaptation.
func BenchmarkExpA3Locality(b *testing.B) { benchExp(b, "A3") }

// Section 2, adaptivity class 4: latency adaptation.
func BenchmarkExpA4Latency(b *testing.B) { benchExp(b, "A4") }

// Section 3.2: parcels vs remote fetch.
func BenchmarkExpL1Parcels(b *testing.B) { benchExp(b, "L1") }

// Section 3.2: futures.
func BenchmarkExpL2Futures(b *testing.B) { benchExp(b, "L2") }

// Section 3.2: percolation.
func BenchmarkExpL3Percolation(b *testing.B) { benchExp(b, "L3") }

// Section 3.2: dataflow sync and atomic blocks.
func BenchmarkExpL4Sync(b *testing.B) { benchExp(b, "L4") }

// Section 3.3: SSP vs innermost modulo scheduling.
func BenchmarkExpS1SSP(b *testing.B) { benchExp(b, "S1") }

// Section 3.3: SSP + threads hybrid scaling.
func BenchmarkExpS2Hybrid(b *testing.B) { benchExp(b, "S2") }

// Section 3.3: dynamic loop scheduling family.
func BenchmarkExpS3LoopSched(b *testing.B) { benchExp(b, "S3") }

// Section 5.2: the neuroscience experimental plan.
func BenchmarkExpN1Neuro(b *testing.B) { benchExp(b, "N1") }

// Section 5.2: the molecular dynamics experimental plan.
func BenchmarkExpM1MD(b *testing.B) { benchExp(b, "M1") }

// Section 3.1: the thread-grain cost model.
func BenchmarkExpG1GrainCost(b *testing.B) { benchExp(b, "G1") }

// internal/serve: the job service layer under open-loop load, with
// percolation warm-up (serve-loadtest).
func BenchmarkExpV1ServeLoadtest(b *testing.B) { benchExp(b, "V1") }

// internal/serve + internal/adapt: the closed adaptivity loop (batch
// retuning, shard stealing) against a static config on deterministic
// skewed-load scripts.
func BenchmarkExpV2AdaptiveServe(b *testing.B) { benchExp(b, "V2") }

// internal/serve + internal/mem: the locale-aware data plane (locality
// routing, working-set staging, the locality loop) against hash-routed
// cold access on the localhot script.
func BenchmarkExpV3DataLocality(b *testing.B) { benchExp(b, "V3") }

// Serving path: shard-chained pipeline flows vs per-stage resubmission.
func BenchmarkExpV4PipelineFlows(b *testing.B) { benchExp(b, "V4") }
