package main

// Cluster mode (-listen / -join / -nodes): each htserved process is one
// cluster node on the real TCP parcel transport. Every node registers
// the same demo tenant and 3-stage pipeline (symmetric registration,
// like parcel handlers), waits for the membership to reach -nodes, then
// plays an open script of -rate flows/s for -duration through the
// cluster pipeline — or, at -rate 0, just hosts its locale range and
// serves stages forwarded by peers. Stage routes
// re-key from the stage value, so one flow's stages spread across the
// ring and a multi-node run moves real parcels, code images, and
// objects over the sockets.
//
// Three-shell quickstart (see README "Cluster"):
//
//	htserved -listen 127.0.0.1:7101 -nodes 3 -rate 0 -duration 60s
//	htserved -listen 127.0.0.1:7102 -join 127.0.0.1:7101 -nodes 3 -rate 0 -duration 60s
//	htserved -listen 127.0.0.1:7103 -join 127.0.0.1:7101 -nodes 3 -rate 500 -duration 5s

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/netparcel"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
	"repro/internal/spinwork"
)

type clusterOpts struct {
	listen, join     string
	nodes            int
	locales, workers int
	shards, depth    int
	imgKB            int
	rate             float64
	duration         time.Duration
	seed             uint64
	work             int64
	detectEvery      time.Duration
	detectMisses     int
	flowTimeout      time.Duration
}

func runCluster(o clusterOpts) {
	if o.nodes > 1 && o.locales < 16*o.nodes {
		// Each node holds ONE cut on the ring, so its share of the locale
		// space is its arc length quantized to whole locales; a coarse
		// locale space can round an unlucky node's share down to nothing.
		fmt.Fprintf(os.Stderr, "htserved: warning: -locales %d is coarse for %d nodes; "+
			"use -locales %d or more for even ownership\n", o.locales, o.nodes, 16*o.nodes)
	}
	tr, err := netparcel.Listen(parcel.NodeID("ht@"+o.listen), o.listen, netparcel.Config{})
	if err != nil {
		fatal("-listen:", err)
	}
	node, err := cluster.NewNode(cluster.Config{
		Transport: tr,
		System:    litlx.Config{Locales: o.locales, WorkersPerLocale: o.workers, Seed: o.seed},
		Serve:     serve.Config{Shards: o.shards, QueueDepth: o.depth},
		Detect:    cluster.DetectConfig{Every: o.detectEvery, Misses: o.detectMisses},
		Recover:   cluster.RecoverConfig{FlowTimeout: o.flowTimeout},
	})
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	pipe, err := registerClusterDemo(node, o.imgKB, o.work, o.locales)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: node %s listening on %s (%d global locales)\n",
		node.Self(), node.Transport().Addr(), o.locales)

	if o.join != "" {
		// The seed may still be binding; retry briefly.
		deadline := time.Now().Add(15 * time.Second)
		for {
			if err = node.Join(o.join); err == nil {
				break
			}
			if time.Now().After(deadline) {
				fatal("-join:", err)
			}
			time.Sleep(200 * time.Millisecond)
		}
		fmt.Printf("cluster: joined via %s, members=%d\n", o.join, len(node.Members()))
	}
	if o.nodes > 1 {
		deadline := time.Now().Add(60 * time.Second)
		for len(node.Members()) < o.nodes {
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "htserved: cluster reached %d of %d members before timeout\n",
					len(node.Members()), o.nodes)
				os.Exit(1)
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("cluster: membership complete: %v\n", node.Members())
	}

	var rep serve.LoadReport
	if o.rate > 0 {
		tick, ticks, perTick := scriptGrid(o.rate, o.duration)
		sc := serve.OpenLoopScenario(o.seed, 1, ticks, perTick, 0, 1<<32)
		fmt.Printf("playing %d flows over %d ticks of %v through the cluster pipeline...\n", sc.Offered(), sc.Ticks, tick)
		tn, _ := node.Serve().Tenant("demo") // registered by registerClusterDemo
		rep = serve.PlayScenario(node.Serve(), sc, serve.PlayConfig{
			Tenants: []*serve.Tenant{tn}, Tick: tick,
			Submit: func(a serve.Arrival, req serve.Request, done func(serve.Result)) error {
				req.Payload = int(a.Key) // the demo stages add one to an int
				return pipe.SubmitFunc(req, done)
			},
		})
	} else {
		// Host-only: own the locale range, serve forwarded stages.
		fmt.Printf("hosting locales %v for %v...\n", node.OwnedLocales(), o.duration)
		time.Sleep(o.duration)
	}

	sts := node.ClusterStats()
	var remote, forwarded, fetches, percolate, wire int64
	for _, st := range sts {
		remote += st.RemoteStages
		forwarded += st.ForwardedStages
		fetches += st.CodeFetches + st.ObjectFetches
		percolate += st.PercolateBytes
		wire += st.Wire.BytesSent
	}
	fmt.Printf("cluster: members=%d owned_locales=%d flows=%d ok=%d rejected=%d shed=%d failed=%d "+
		"double_resolves=%d unresolved=%d remote_stages=%d forwarded=%d fetches=%d percolate_bytes=%d wire_bytes=%d\n",
		len(node.Members()), len(node.OwnedLocales()), rep.Offered, rep.Completed, rep.Rejected, rep.Shed, rep.Failed,
		rep.DoubleResolves, rep.Unresolved, remote, forwarded, fetches, percolate, wire)
	for _, st := range sts {
		fmt.Printf("  node %s: owned=%d remote_stages=%d local_stages=%d forwarded=%d "+
			"fetches=%d wire_sent=%d wire_recv=%d\n",
			st.Node, st.OwnedLocales, st.RemoteStages, st.LocalStages, st.ForwardedStages,
			st.CodeFetches+st.ObjectFetches, st.Wire.BytesSent, st.Wire.BytesRecv)
	}
}

// registerClusterDemo installs the demo tenant and pipeline every
// cluster-mode node runs: three stages whose routes re-key from the
// stage value, plus one global object per locale so remote stages
// percolate real bytes.
func registerClusterDemo(n *cluster.Node, imgKB int, work int64, locales int) (*cluster.Pipeline, error) {
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		spinwork.Work(work)
		return req.Payload.(int) + 1, nil
	}
	globals := make([]cluster.GlobalObject, locales)
	for i := range globals {
		globals[i] = cluster.GlobalObject{Name: fmt.Sprintf("block%d", i), Size: 4 << 10, Home: i}
	}
	t, err := n.RegisterTenant(cluster.TenantConfig{
		Serve:   serve.TenantConfig{Name: "demo", Handler: handler, CodeSize: imgKB << 10},
		Globals: globals,
	})
	if err != nil {
		return nil, err
	}
	rekey := func(v any) (uint64, []string) {
		x, _ := v.(int)
		h := uint64(x) * 0x9E3779B97F4A7C15
		h ^= h >> 33
		return h, []string{fmt.Sprintf("block%d", x%locales)}
	}
	return t.NewPipeline(cluster.PipelineConfig{
		Name: "demo3",
		Stages: []serve.Stage{
			{Name: "ingest", Handler: handler},
			{Name: "transform", Handler: handler},
			{Name: "emit", Handler: handler},
		},
		Routes: []cluster.StageRoute{nil, rekey, rekey},
	})
}
