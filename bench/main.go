// Command bench is the repository's benchmark: it boots the real
// serving stack in-process through public APIs, drives six workloads
// from two client goroutines, checks every result, and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// describes it; bench/README.md says what each number means.
//
//	bash bench/run.sh --workload solo-small --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload all --out a.jsonl
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricDef names one metric and its unit. The two lists below are the
// same as BENCHMARK.json's end_to_end and per_layer (a test checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"serve.submit_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.exec_us", "us"},
	{"serve.resolve_us", "us"},
	{"serve.stage_hop_us", "us"},
	{"serve.join_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.batches", "count"},
	{"serve.allocs_per_op", "count"},
	{"serve.failures", "count"},
	{"serve.steals", "count"},
	{"core.spawn_us", "us"},
	{"cluster.ingress_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.complete_us", "us"},
	{"cluster.remote_stage_share", "share"},
	{"cluster.parcels_per_flow", "count"},
	{"cluster.wire_bytes_per_flow", "bytes"},
	{"cluster.recovered_flows", "count"},
	{"cluster.stale_completions", "count"},
	{"parcel.fabric_call_us", "us"},
	{"netparcel.send_to_handler_us", "us"},
	{"netparcel.call_rtt_64_us", "us"},
	{"netparcel.call_rtt_16k_us", "us"},
	{"netparcel.frame_overhead_bytes", "bytes"},
	{"trace.overhead_share", "share"},
	{"trace.observe_tax_share", "share"},
	{"trace.unattributed_share", "share"},
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runRecord is one line of an --out file: the result plus what
// -compare and a reader need to interpret it.
type runRecord struct {
	resultLine
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// Windows holds each end-to-end metric's per-window values, the
	// spread a single run can speak for.
	Windows map[string][]float64 `json:"windows,omitempty"`
	// Extra is reported but never gated: tail latency and generator
	// lateness do not repeat within a tenth on a shared two-core box.
	Extra map[string]float64 `json:"extra,omitempty"`
	Env   map[string]string  `json:"env"`
}

func environment() map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"network":    "cluster-tcp* run over host loopback; no real link is measured",
	}
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 16, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	outFile := flag.String("out", "", "append one JSON record per run to this file (input of -compare)")
	traceDir := flag.String("tracedir", "bench/out", "directory the traced run writes trace-<workload>.json to")
	compare := flag.Bool("compare", false, "compare two --out files: -compare a.jsonl b.jsonl")
	specFile := flag.String("spec", "BENCHMARK.json", "benchmark description holding the bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.jsonl b.jsonl")
		}
		worse, err := compareFiles(os.Stdout, *specFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || flag.NArg() != 0 {
		fatal("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
	}
	list := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		list = []workloadSpec{w}
	}
	correct := true
	for _, w := range list {
		rec, err := runOne(os.Stdout, w, *seed, *seconds, *trace, *traceDir)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		if *outFile != "" {
			if err := appendRecord(*outFile, rec); err != nil {
				fatal("%v", err)
			}
		}
		line, _ := json.Marshal(rec.resultLine)
		fmt.Printf("%s\n", line)
		correct = correct && rec.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runOne runs one workload once and prints its metrics to out.
func runOne(out io.Writer, w workloadSpec, seed uint64, seconds float64, trace int, traceDir string) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Env: environment()}
	rec.Metrics = make(map[string]metricOut)
	loop := "closed loop, 2 clients"
	if w.open {
		loop = fmt.Sprintf("open loop, %.0f req/s Poisson", openRate)
	}
	fmt.Fprintf(out, "%s: %s, seed %d, %gs, %s nproc=%s GOMAXPROCS=%s\n", w.name, loop, seed, seconds,
		rec.Env["go"], rec.Env["nproc"], rec.Env["gomaxprocs"])
	if w.kind == kindCluster && w.transit == "netparcel.transit" {
		fmt.Fprintf(out, "%s: %s\n", w.name, rec.Env["network"])
	}
	if trace != 0 {
		res, err := runTraced(w, seed, seconds, traceDir)
		if err != nil {
			return nil, err
		}
		rec.Attempted, rec.Failed, rec.Correct = res.attempted, res.failed, res.failed == 0
		for _, d := range perLayer {
			rec.Metrics[d.name] = metricOut{res.metrics[d.name], d.unit}
			fmt.Fprintf(out, "%s %-32s %14.4f %s\n", w.name, d.name, res.metrics[d.name], d.unit)
		}
		printSelfTable(out, w.name, res)
		fmt.Fprintf(out, "%s trace written to %s\n", w.name, res.tracePath)
		return rec, nil
	}
	return rec, runEndToEnd(out, w, seed, seconds, rec)
}

// runEndToEnd is the untraced run: set-up timed several times, the
// timed windows, and the end-to-end metrics filled into rec.
func runEndToEnd(out io.Writer, w workloadSpec, seed uint64, seconds float64, rec *runRecord) error {
	// Set-up is timed several times over and its median reported; the
	// last stack booted is the one measured.
	var setups []float64
	var in instance
	for i := 0; i < setupRounds; i++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = boot(w, seed, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()
	ph, err := measure(w, in, seed, windows, time.Duration(seconds/windows*float64(time.Second)), nil)
	if err != nil {
		return err
	}
	ok, failed := ph.ops()
	rec.Attempted, rec.Failed, rec.Correct = ok+failed, failed, failed == 0

	// An overloaded open-loop window measured the generator or a queue
	// that should not exist at this rate; it is left out while any
	// sound window remains.
	wins := ph.wins
	var sound []window
	for _, win := range wins {
		if !win.overloaded {
			sound = append(sound, win)
		}
	}
	if len(sound) > 0 {
		wins = sound
	}
	var all hist
	var late hist
	per := map[string][]float64{}
	for i := range wins {
		win := &wins[i]
		per["throughput_ops_s"] = append(per["throughput_ops_s"], win.throughput())
		per["latency_p50_us"] = append(per["latency_p50_us"], win.p50us())
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], win.cpuPerOp())
		all.merge(&win.lat)
		late.merge(&win.late)
	}
	per["setup_s"] = setups
	rec.Windows = per
	for _, d := range endToEnd {
		v := median(per[d.name])
		q1, q3 := quartiles(per[d.name])
		rec.Metrics[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(out, "%s %-18s %14.4f %-4s (quartiles %.4f .. %.4f over %d)\n", w.name, d.name, v, d.unit, q1, q3, len(per[d.name]))
	}
	rec.Extra = map[string]float64{
		"latency_p99_us":      all.quantile(0.99) / 1e3,
		"latency_p99_samples": float64(all.n),
		"latency_max_us":      float64(all.max) / 1e3,
		"failed_share":        float64(failed) / float64(ok+failed),
		"windows_overloaded":  float64(len(ph.wins) - len(sound)),
	}
	fmt.Fprintf(out, "%s ops_attempted %d ops_ok %d ops_failed %d failed_share %.6f\n", w.name, ok+failed, ok, failed, rec.Extra["failed_share"])
	fmt.Fprintf(out, "%s latency_p99_us %.3f us over %d samples, latency_max_us %.3f us (reported, not gated)\n",
		w.name, rec.Extra["latency_p99_us"], all.n, rec.Extra["latency_max_us"])
	if w.open {
		rec.Extra["gen_late_p50_us"] = late.quantile(0.5) / 1e3
		rec.Extra["gen_late_p99_us"] = late.quantile(0.99) / 1e3
		fmt.Fprintf(out, "%s gen_late_p50_us %.3f us, gen_late_p99_us %.3f us, %d of %d windows overloaded and left out\n",
			w.name, rec.Extra["gen_late_p50_us"], rec.Extra["gen_late_p99_us"], len(ph.wins)-len(sound), len(ph.wins))
	}
	return nil
}
