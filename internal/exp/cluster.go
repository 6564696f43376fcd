package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

func init() {
	register("V5", ExpClusterServe)
}

// ExpClusterServe measures multi-node serving over the parcel
// transport: the same seeded stream of three-stage flows played
// against a cluster of one node and a cluster of three, on the
// in-process fabric. The single node chains every stage locally (the
// remote fraction is zero by construction); the three-node ring routes
// stages across machines, so the table shows what distribution costs
// and moves — throughput, the fraction of stages executed away from
// their origin, forwarded stage parcels, percolation transfers, and
// bytes on the wire. Placement is a pure function of the member ids
// and the seeded keys, so the remote fraction is deterministic.
func ExpClusterServe(scale int) *Result {
	res := newResult("V5", "EXP-V5: single-node vs three-node serving over the parcel fabric",
		"nodes", "flows", "ok", "elapsed_ms", "flows_per_s", "remote_stages", "remote_frac", "forwarded", "fetches", "wire_bytes")

	const locales = 8
	flows := 400 * scale

	run := func(count int) (okFlows int, elapsed time.Duration, remote, local, forwarded, fetches, wireBytes int64) {
		fabric := parcel.NewFabric()
		nodes := make([]*cluster.Node, count)
		pipes := make([]*cluster.Pipeline, count)
		for i := range nodes {
			n, err := cluster.NewNode(cluster.Config{
				Transport: fabric.Node(parcel.NodeID(fmt.Sprintf("v5-n%d", i))),
				System:    litlx.Config{Locales: locales, WorkersPerLocale: 4, Seed: uint64(i) + 1},
				Serve:     serve.Config{Shards: locales, QueueDepth: 4096},
			})
			if err != nil {
				panic(err)
			}
			defer n.Close()
			nodes[i] = n
			echo := func(_ *serve.Ctx, req serve.Request) (any, error) {
				return req.Payload.(int) + 1, nil
			}
			t, err := n.RegisterTenant(cluster.TenantConfig{
				Serve:   serve.TenantConfig{Name: "v5", Handler: echo, CodeSize: 8 << 10},
				Globals: []cluster.GlobalObject{{Name: "model", Size: 4 << 10, Home: 0}},
			})
			if err != nil {
				panic(err)
			}
			rekey := func(v any) (uint64, []string) {
				x, _ := v.(int)
				return mix64exp(uint64(x)*0x9E3779B97F4A7C15 + 11), []string{"model"}
			}
			p, err := t.NewPipeline(cluster.PipelineConfig{
				Name:   "chain",
				Stages: []serve.Stage{{Name: "a", Handler: echo}, {Name: "b", Handler: echo}, {Name: "c", Handler: echo}},
				Routes: []cluster.StageRoute{nil, rekey, rekey},
			})
			if err != nil {
				panic(err)
			}
			pipes[i] = p
		}
		for i := 1; i < count; i++ {
			if err := nodes[i].Join(nodes[0].Transport().Addr()); err != nil {
				panic(err)
			}
		}

		census := serve.NewCensus(flows)
		t0 := time.Now()
		for i := 0; i < flows; i++ {
			err := pipes[0].SubmitFunc(serve.Request{Key: mix64exp(uint64(i)), Payload: i},
				func(r serve.Result) { census.Resolve(i, r) })
			if err != nil {
				census.Resolve(i, serve.Result{Status: serve.StatusRejected, Err: err})
			}
		}
		census.Wait(time.Minute)
		elapsed = time.Since(t0)
		if open := census.Tally().Unresolved; open > 0 {
			panic(fmt.Sprintf("exp: V5 %d-node run left %d of %d flows unresolved after a minute", count, open, flows))
		}
		for _, n := range nodes {
			st := n.Stats()
			remote += st.RemoteStages
			local += st.LocalStages
			forwarded += st.ForwardedStages
			fetches += st.CodeFetches + st.ObjectFetches
			wireBytes += st.Wire.BytesSent
		}
		return census.Tally().OK, elapsed, remote, local, forwarded, fetches, wireBytes
	}

	for _, count := range []int{1, 3} {
		ok, elapsed, remote, local, forwarded, fetches, wireBytes := run(count)
		// Remote fraction over the stages that went through the cluster
		// stage path; the 1-node run never ships a stage, so its
		// denominator is the full flow volume.
		totalStages := float64(3 * flows)
		if s := float64(remote + local); s > totalStages {
			totalStages = s
		}
		remoteFrac := float64(remote) / totalStages
		perS := float64(ok) / elapsed.Seconds()
		res.Table.AddRow(count, flows, ok, fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000.0),
			fmt.Sprintf("%.0f", perS), remote, fmt.Sprintf("%.3f", remoteFrac), forwarded, fetches, wireBytes)
		res.Metrics[fmt.Sprintf("remote_frac_%dnode", count)] = remoteFrac
		res.Metrics[fmt.Sprintf("flows_per_s_%dnode", count)] = perS
		res.Metrics[fmt.Sprintf("wire_bytes_%dnode", count)] = float64(wireBytes)
	}
	return res
}

// mix64exp is the V5 key stream (splitmix64 finalizer).
func mix64exp(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
