package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sample is every value one side has for a (workload, metric) pair.
type sample struct{ median, q1, q3 float64 }

// readSamples groups an --out file by workload and end-to-end metric.
// Several runs of a workload (one per seed) are summarised across runs,
// the way the driver judges them; a single run falls back to its own
// windows.
func readSamples(path string) (map[string]map[string]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	wins := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload], wins[r.Workload] = map[string][]float64{}, map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
			wins[r.Workload][name] = r.Windows[name]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]map[string]sample{}
	for w, byMetric := range runs {
		out[w] = map[string]sample{}
		for name, vals := range byMetric {
			s := sample{median: median(vals)}
			if len(vals) == 1 && len(wins[w][name]) > 1 {
				vals = wins[w][name]
			}
			s.q1, s.q3 = quartiles(vals)
			out[w][name] = s
		}
	}
	return out, nil
}

// verdict judges b against a for one metric. The spread is the distance
// between the quartiles as a share of the median; where either side's
// spread is wider than the bound the pair cannot be told apart at that
// bound and is unresolved, otherwise b is worse when its median is worse
// than a's by more than the bound.
func verdict(a, b sample, better string, bound float64) string {
	spread := func(s sample) float64 {
		if s.median == 0 {
			return 0
		}
		return (s.q3 - s.q1) / s.median
	}
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	change := (b.median - a.median) / a.median
	if better == "higher" {
		change = -change
	}
	if change > bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any row is worse.
func compareFiles(out io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSamples(aPath)
	if err != nil {
		return false, err
	}
	b, err := readSamples(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-16s %-18s %14s %25s %14s %25s %7s %6s %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "b/a", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, oka := a[w.Name][m.Name]
			sb, okb := b[w.Name][m.Name]
			if !oka || !okb {
				fmt.Fprintf(out, "%-16s %-18s missing from %s\n", w.Name, m.Name, map[bool]string{true: bPath, false: aPath}[oka])
				continue
			}
			v := verdict(sa, sb, m.Better, m.Bound)
			if m.Name == "setup_s" {
				// Judged on its median alone, as the driver does: set-up is
				// too short for its spread to stay inside any useful bound.
				v = verdict(sample{median: sa.median, q1: sa.median, q3: sa.median},
					sample{median: sb.median, q1: sb.median, q3: sb.median}, m.Better, m.Bound)
			}
			worse = worse || v == "worse"
			fmt.Fprintf(out, "%-16s %-18s %14.4f %12.4f..%-11.4f %14.4f %12.4f..%-11.4f %7.3f %6.2f %s\n",
				w.Name, m.Name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, sb.median/sa.median, m.Bound, v)
		}
	}
	return worse, nil
}
