package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistQuantileTracksExact(t *testing.T) {
	var h hist
	var xs []float64
	r := rng{s: 7}
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 100ns..10ms, the range latencies live in.
		v := int64(100 * math.Pow(1e5, r.float()))
		h.record(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, want := h.quantile(q), quantileOf(xs, q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.1f, exact %.1f: off by more than 1%%", q, got, want)
		}
	}
	if h.n != 200_000 || float64(h.max) != xs[len(xs)-1] {
		t.Errorf("n=%d max=%d, want 200000 and %v", h.n, h.max, xs[len(xs)-1])
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<41 + 12345} {
		lo, width := histBounds(histIndex(v))
		if v < lo || v >= lo+width {
			t.Errorf("value %d indexed into bucket [%d, %d)", v, lo, lo+width)
		}
	}
}

// The driver judges spread with Python's statistics.quantiles(xs, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Req: 1, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

// Within a request self times add up to the latency, so the table of
// the median request must add up to the latency it reports.
func TestLayerSelfAddsUp(t *testing.T) {
	b := spanBuilder{tr: &tracer{}}
	for i := 0; i < 101; i++ {
		t0 := int64(i) * 1000
		r := &reqRec{seq: uint64(i), t0: t0, t1: t0 + 3, t2: t0 + 100 + int64(i), stages: 1}
		r.hStart[0], r.hEnd[0] = t0+10, t0+60+int64(i)
		b.build(r, kindSolo, "")
	}
	byName, latency := layerSelf(b.spans)
	var sum float64
	for _, v := range byName {
		sum += v
	}
	if math.Abs(sum-latency) > 1e-9 || math.Abs(latency-0.150) > 1e-9 {
		t.Errorf("rows sum to %.6f us, latency %.6f us, want both 0.150", sum, latency)
	}
	near := func(name string, want float64) bool { return math.Abs(byName[name]-want) < 1e-9 }
	if !near("serve.submit", 0.003) || !near("serve.queue_wait", 0.007) || !near("serve.resolve", 0.040) || !near("(unattributed)", 0) {
		t.Errorf("unexpected decomposition %v", byName)
	}
}

func TestMatchParcelsPairsByBody(t *testing.T) {
	a, b := []byte("stage parcel of flow 1"), []byte("stage parcel of flow 2")
	evs := []tev{
		{kind: evSend, node: 0, peer: 1, hash: bodyHash(a), start: 10},
		{kind: evSend, node: 0, peer: 1, hash: bodyHash(b), start: 12},
		{kind: evRecv, node: 1, peer: 0, hash: bodyHash(b), start: 20},
		{kind: evRecv, node: 1, peer: 0, hash: bodyHash(a), start: 31},
		{kind: evRecv, node: 0, peer: 1, hash: bodyHash(a), start: 40}, // other direction: no sender
	}
	ps := matchParcels(evs)
	if len(ps) != 2 || ps[0].recv.start != 31 || ps[1].recv.start != 20 {
		t.Fatalf("parcels matched wrongly: %+v", ps)
	}
	big := make([]byte, payload16k)
	h := bodyHash(big)
	big[100]++
	if bodyHash(big) == h {
		t.Error("bodyHash ignores the head of a large body")
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := schedule(42, openRate, 2*time.Second), schedule(42, openRate, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two schedules")
	}
	c := schedule(43, openRate, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
	if n := float64(len(a)); math.Abs(n-2*openRate) > 5*math.Sqrt(2*openRate) {
		t.Errorf("%v arrivals in 2s at %v/s", n, openRate)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= int64(2*time.Second) {
		t.Error("schedule is not ascending within its span")
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) sample { return sample{median: m, q1: m * 0.99, q3: m * 1.01} }
	wide := sample{median: 100, q1: 90, q3: 115}
	for _, c := range []struct {
		name   string
		a, b   sample
		better string
		want   string
	}{
		{"lower-is-better within bound", tight(100), tight(108), "lower", "ok"},
		{"lower-is-better beyond bound", tight(100), tight(112), "lower", "worse"},
		{"lower-is-better improved", tight(100), tight(50), "lower", "ok"},
		{"higher-is-better beyond bound", tight(100), tight(88), "higher", "worse"},
		{"higher-is-better improved", tight(100), tight(130), "higher", "ok"},
		{"spread wider than bound", wide, tight(100), "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput []float64) string {
		var buf bytes.Buffer
		for i, v := range throughput {
			rec := runRecord{Workload: "solo-small", Seed: uint64(i + 1)}
			rec.Metrics = map[string]metricOut{"throughput_ops_s": {v, "1/s"}, "setup_s": {0.2, "s"}}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	// A loss beyond any bound BENCHMARK.json may hold (at most 0.25).
	b := write("b.jsonl", []float64{60, 61, 59, 60, 62, 58, 60, 61, 59, 60})
	var out bytes.Buffer
	worse, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% throughput loss was not reported as worse:\n%s", out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), a, a); err != nil || worse {
		t.Errorf("a file compared with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "cluster-tcp-16k") || !strings.Contains(out.String(), "missing") {
		t.Errorf("workloads absent from the files should be listed as missing:\n%s", out.String())
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end is %v in BENCHMARK.json, %v in the program", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer is %v in BENCHMARK.json, %v in the program", layers, perLayer)
	}
}

// TestSmoke runs every workload end to end for a fifth of a second,
// untraced and traced: every result right, conservation holding, every
// named metric present, the trace file written.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, err := runOne(io.Discard, w, defaultSeed, 0.2, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			for _, d := range endToEnd {
				if m, ok := rec.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("untraced: metric %s = %+v", d.name, m)
				}
			}
			if testing.Short() {
				return
			}
			// Another seed changes the inputs, not the outcome.
			rec, err = runOne(io.Discard, w, defaultSeed+1, 0.5, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || len(rec.Metrics) != len(perLayer) {
				t.Errorf("traced: correct=%v with %d of %d metrics", rec.Correct, len(rec.Metrics), len(perLayer))
			}
			if v := rec.Metrics["trace.unattributed_share"].Value; v > 0.15 {
				t.Errorf("traced: %.0f%% of the median request's latency is covered by no span", v*100)
			}
			if w.kind == kindCluster {
				if v := rec.Metrics["cluster.remote_stage_share"].Value; v <= 0.5 {
					t.Errorf("traced: remote stage share %v, want above a half", v)
				}
			}
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || tf.Spans[0].Name != "request" {
				t.Errorf("trace file: err=%v, %d spans", err, len(tf.Spans))
			}
		})
	}
}
