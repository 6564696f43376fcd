package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster/netparcel"
	"repro/internal/core"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// The traced run (--trace 1) gives the per-layer numbers. It runs the
// workload twice on fresh stacks — once plain, for the counters and the
// reference throughput, once with the bench-owned stamps and transport
// decorator on — then the probes that time one layer in isolation.
// Every per-layer metric is reported for every workload; one that does
// not apply to a workload reads 0.

// tracedResult is what a traced run reports.
type tracedResult struct {
	metrics           map[string]float64
	attempted, failed uint64
	selfByName        map[string]float64 // span name -> self time within the median request, µs
	midLatency        float64
	tracePath         string
}

func runTraced(w workloadSpec, seed uint64, seconds float64, dir string) (*tracedResult, error) {
	length := time.Duration(seconds * 0.3 * float64(time.Second))
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	res := &tracedResult{metrics: m}

	// A process's first stack runs several percent slow (fresh heap,
	// cold caches); an end-to-end run measures its fifth. Boot one and
	// throw it away so the two phases below are comparable.
	in, err := boot(w, seed, nil)
	if err != nil {
		return nil, err
	}
	in.close()

	// Plain phase: counters, allocations and the throughput tracing is
	// compared against.
	if in, err = boot(w, seed, nil); err != nil {
		return nil, err
	}
	plain, err := measure(w, in, seed, 1, length, nil)
	in.close()
	if err != nil {
		return nil, err
	}
	ok, failed := plain.ops()
	res.attempted, res.failed = ok+failed, failed
	d := plain.after
	b := plain.before
	flows := float64(ok)
	m["serve.allocs_per_op"] = float64(plain.mallocs) / flows
	m["serve.batches"] = float64(d.batches - b.batches)
	if n := d.batches - b.batches; n > 0 {
		m["serve.batch_size_mean"] = float64(d.done+d.shed-b.done-b.shed) / float64(n)
	}
	if w.kind == kindCluster {
		remote, local := d.remoteStages-b.remoteStages, d.localStages-b.localStages
		m["cluster.remote_stage_share"] = float64(remote) / float64(remote+local)
		m["cluster.parcels_per_flow"] = float64(d.wireParcels-b.wireParcels) / flows
		m["cluster.wire_bytes_per_flow"] = float64(d.wireBytes-b.wireBytes) / flows
	}

	// Traced phase.
	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	in, err = boot(w, seed, tr)
	if err != nil {
		return nil, err
	}
	traced, err := measure(w, in, seed, 1, length, tr)
	in.close()
	if err != nil {
		return nil, err
	}
	tok, tfailed := traced.ops()
	res.attempted += tok + tfailed
	res.failed += tfailed
	m["trace.overhead_share"] = 1 - (float64(tok)/traced.seconds())/(float64(ok)/plain.seconds())
	for _, ph := range []*phase{plain, traced} {
		m["serve.failures"] += float64(ph.after.rejected + ph.after.shed + ph.after.failed)
		m["serve.steals"] += float64(ph.after.steals)
		m["cluster.recovered_flows"] += float64(ph.after.recoveredFlows)
		m["cluster.stale_completions"] += float64(ph.after.staleCompletions)
	}

	recs := tracedRecs(tr, w)
	if len(recs) == 0 {
		return nil, fmt.Errorf("traced run recorded no complete request")
	}
	evs := tr.tevs[:min(tr.ntevs.Load(), int64(len(tr.tevs)))]
	parcels := matchParcels(evs)
	layerMetrics(m, w, recs, parcels)
	if w.kind == kindCluster {
		var bodies int64
		for _, e := range evs {
			bodies += int64(e.reply)
			if e.kind != evRecv {
				bodies += int64(e.size)
			}
		}
		if n := traced.after.wireParcels - traced.before.wireParcels; n > 0 {
			m["netparcel.frame_overhead_bytes"] = float64(traced.after.wireBytes-traced.before.wireBytes-bodies) / float64(n)
		}
	}

	sb := &spanBuilder{tr: tr, parcels: parcels}
	inFile := 0
	for i, r := range recs {
		sb.build(r, w.kind, w.transit)
		if i+1 == spanFileRequests {
			inFile = len(sb.spans)
		}
	}
	if inFile == 0 {
		inFile = len(sb.spans)
	}
	res.selfByName, res.midLatency = layerSelf(sb.spans)
	m["trace.unattributed_share"] = res.selfByName["(unattributed)"] / res.midLatency
	res.tracePath, err = writeTraceFile(dir, traceFile{
		Workload: w.name, Seed: seed, Nodes: tr.nodes,
		Requests: len(recs), RequestsInFil: min(len(recs), spanFileRequests),
		Clock: "ns since process start, one monotonic clock for every node", Spans: sb.spans[:inFile],
	})
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}

	// Probes: one layer in isolation, on the workload it explains.
	probe := time.Duration(seconds * 0.1 * float64(time.Second))
	switch w.name {
	case "solo-small":
		if m["core.spawn_us"], err = probeSpawn(seed, probe); err != nil {
			return nil, err
		}
		obs, err := probeObserve(w, seed, length/2)
		if err != nil {
			return nil, err
		}
		m["trace.observe_tax_share"] = 1 - obs/(float64(ok)/plain.seconds())
	case "cluster-fabric":
		m["parcel.fabric_call_us"], err = probeCall(false, 64, probe)
	case "cluster-tcp":
		m["netparcel.call_rtt_64_us"], err = probeCall(true, 64, probe)
	case "cluster-tcp-16k":
		m["netparcel.call_rtt_16k_us"], err = probeCall(true, payload16k, probe)
	}
	return res, err
}

// tracedRecs returns the records of requests that completed OK with
// every stamp in place.
func tracedRecs(tr *tracer, w workloadSpec) []*reqRec {
	want := 1
	if w.kind != kindSolo {
		want = maxStages
	}
	var out []*reqRec
	for i := range tr.recs {
		r := &tr.recs[i]
		if r.ok && r.t2 != 0 && r.stages == want {
			out = append(out, r)
		}
	}
	return out
}

func p50us(ns []float64) float64 { return quantileOf(ns, 0.5) / 1e3 }

// layerMetrics derives the span-based per-layer metrics: medians over
// the traced requests of each gap between two stamps.
func layerMetrics(m map[string]float64, w workloadSpec, recs []*reqRec, parcels []*parcelSpan) {
	var submit, wait, exec, resolve, stageHop, join, ingress, hop, complete []float64
	for _, r := range recs {
		last := r.stages - 1
		submit = append(submit, float64(r.t1-r.t0))
		wait = append(wait, float64(r.wait))
		tail := float64(r.t2 - r.hEnd[last])
		switch w.kind {
		case kindSolo:
			exec = append(exec, float64(r.total-r.wait))
			resolve = append(resolve, tail)
		case kindFlow:
			busy := r.hEnd[0] - r.hStart[0] + r.hEnd[last] - r.hStart[last]
			for i := 0; i < fanWidth; i++ {
				busy += r.eEnd[i] - r.eStart[i]
			}
			first, lastEnd := r.fanExtent()
			exec = append(exec, float64(busy))
			stageHop = append(stageHop, float64(first-r.hEnd[0]))
			join = append(join, float64(r.hStart[last]-lastEnd))
			resolve = append(resolve, tail)
		case kindCluster:
			var busy int64
			for i := 0; i <= last; i++ {
				busy += r.hEnd[i] - r.hStart[i]
				if i == last {
					break
				}
				gap := float64(r.hStart[i+1] - r.hEnd[i])
				if r.node[i] == r.node[i+1] {
					stageHop = append(stageHop, gap)
				} else {
					hop = append(hop, gap)
				}
			}
			exec = append(exec, float64(busy))
			ingress = append(ingress, float64(r.hStart[0]-r.t0))
			if r.node[last] != 0 {
				complete = append(complete, tail)
			}
		}
	}
	m["serve.submit_us"] = p50us(submit)
	m["serve.queue_wait_us"] = p50us(wait)
	m["serve.exec_us"] = p50us(exec)
	m["serve.resolve_us"] = p50us(resolve)
	m["serve.stage_hop_us"] = p50us(stageHop)
	m["serve.join_us"] = p50us(join)
	m["cluster.ingress_us"] = p50us(ingress)
	m["cluster.hop_us"] = p50us(hop)
	m["cluster.complete_us"] = p50us(complete)
	var transit []float64
	for _, p := range parcels {
		transit = append(transit, float64(p.recv.start-p.send.start))
	}
	m["netparcel.send_to_handler_us"] = p50us(transit)
}

// probeSpawn times core's detached SGT spawn from one producer: spawn
// call to body start.
func probeSpawn(seed uint64, budget time.Duration) (float64, error) {
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 2, Seed: seed})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	started := make(chan int64)
	body := func(_ *core.SGT, _ any) { started <- nowNS() }
	var ns []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		for i := 0; i < 256; i++ {
			t0 := nowNS()
			sys.RT.GoAtDetached(i%2, 0, body, nil)
			ns = append(ns, float64(<-started-t0))
		}
	}
	return p50us(ns), nil
}

// probeCall times Transport.Call to an echo handler from one caller:
// over the in-process fabric, or over netparcel on host loopback.
func probeCall(tcp bool, size int, budget time.Duration) (float64, error) {
	var a, b parcel.Transport
	if tcp {
		ta, err := netparcel.Listen("probe-a", "127.0.0.1:0", netparcel.Config{})
		if err != nil {
			return 0, err
		}
		defer ta.Close()
		tb, err := netparcel.Listen("probe-b", "127.0.0.1:0", netparcel.Config{})
		if err != nil {
			return 0, err
		}
		defer tb.Close()
		a, b = ta, tb
	} else {
		fab := parcel.NewFabric()
		a, b = fab.Node("probe-a"), fab.Node("probe-b")
	}
	b.Handle("echo", func(_ parcel.NodeID, body []byte) ([]byte, error) { return body, nil })
	dest, err := a.Dial(b.Addr())
	if err != nil {
		return 0, err
	}
	body := make([]byte, size)
	var ns []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		for i := 0; i < 64; i++ {
			t0 := nowNS()
			reply, err := a.Call(dest, "echo", body)
			if err != nil || len(reply) != size {
				return 0, fmt.Errorf("echo call: %d bytes back, err %v", len(reply), err)
			}
			ns = append(ns, float64(nowNS()-t0))
		}
	}
	return p50us(ns), nil
}

// probeObserve reruns solo-small's closed loop with the serve layer's
// own observability sampling every request, and returns its throughput.
func probeObserve(w workloadSpec, seed uint64, length time.Duration) (float64, error) {
	in, err := setupSolo(seed, nil, 0, serve.ObserveConfig{SampleRate: 1})
	if err != nil {
		return 0, err
	}
	defer in.close()
	if err := warm(in, w.warmOps); err != nil {
		return 0, err
	}
	ph, err := measure(w, in, seed, 1, length, nil)
	if err != nil {
		return 0, err
	}
	ok, _ := ph.ops()
	return float64(ok) / ph.seconds(), nil
}

// printSelfTable writes the layer self-time table of a traced run.
func printSelfTable(out io.Writer, w string, res *tracedResult) {
	names := make([]string, 0, len(res.selfByName))
	for n := range res.selfByName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s traced latency_p50_us %.3f us; self time by span within the median request (middle tenth by latency):\n", w, res.midLatency)
	var sum float64
	for _, n := range names {
		fmt.Fprintf(out, "%s   self %-22s %10.3f us\n", w, n, res.selfByName[n])
		sum += res.selfByName[n]
	}
	fmt.Fprintf(out, "%s   self %-22s %10.3f us (%.1f%% of the latency)\n", w, "sum", sum, 100*sum/res.midLatency)
}
