package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/cluster/netparcel"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// cluster-fabric / cluster-tcp / cluster-tcp-16k: two cluster.Nodes in
// this process, a three-stage chain whose stages each re-key (so the
// ring, not the submitter, decides where a stage runs), every flow
// submitted at node 0.

const (
	clusterLocales = 8
	clusterWarmOps = 2_000
	payload16k     = 16 << 10
	defaultSeed    = 1
)

// clusterNodeIDs are fixed because ring ownership is a function of the
// id hashes: these two own four of the eight locales each (node-2:
// 0,1,6,7; node-4: 2,3,4,5). Pairs such as n0/n1 leave one node with
// no locale at all, and a "wire" workload would then never touch the
// wire. Flows are submitted at node-2.
var clusterNodeIDs = [2]string{"node-2", "node-4"}

// pinnedStages is the (remote, local) stage-parcel count of the
// warm-up at the default seed, per warm-up size. Placement is a pure
// function of seed and node ids, so any other reading means routing
// changed under the benchmark and the run aborts.
var pinnedStages = map[int][2]int64{
	clusterWarmOps:     {3002, 1216},
	clusterWarmOps / 2: {1500, 595},
}

var dictGlobal = []string{"dict"}

type clusterInst struct {
	nodes    [2]*cluster.Node
	pipe     *cluster.Pipeline
	seed     uint64
	template []byte // nil for the int payload
	bufs     [clients][]byte
	tr       *tracer
}

// stageCode packs what a cluster payload carries through the stages:
// the request's sequence number and how many stages have run. It is
// the int payload itself, and bytes 0 (stage) and 1..8 (sequence) of
// the 16 KiB one.
func stageCode(seq uint64, stage int) uint64 { return seq<<2 | uint64(stage) }

func setupCluster(seed uint64, tr *tracer, tcp, big bool) (*clusterInst, error) {
	ci := &clusterInst{seed: seed, tr: tr}
	if big {
		ci.template = make([]byte, payload16k)
		r := rng{s: seed}
		for i := range ci.template {
			ci.template[i] = byte(r.next())
		}
		for c := range ci.bufs {
			ci.bufs[c] = make([]byte, payload16k)
		}
	}
	if tr != nil {
		tr.nodes = clusterNodeIDs[:]
	}
	fab := parcel.NewFabric()
	for i, id := range clusterNodeIDs {
		var t parcel.Transport
		if tcp {
			nt, err := netparcel.Listen(parcel.NodeID(id), "127.0.0.1:0", netparcel.Config{})
			if err != nil {
				ci.close()
				return nil, fmt.Errorf("listen %s: %w", id, err)
			}
			t = nt
		} else {
			t = fab.Node(parcel.NodeID(id))
		}
		if tr != nil {
			t = &tracedTransport{Transport: t, tr: tr, node: int8(i)}
		}
		node, err := cluster.NewNode(cluster.Config{
			Transport: t,
			System:    litlx.Config{Locales: clusterLocales, WorkersPerLocale: 1, Seed: seed + uint64(i)},
			Serve:     serve.Config{Shards: clusterLocales, Batch: 32},
		})
		if err != nil {
			_ = t.Close()
			ci.close()
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
		ci.nodes[i] = node
		p, err := ci.register(node, int8(i))
		if err != nil {
			ci.close()
			return nil, err
		}
		if i == 0 {
			ci.pipe = p
		}
	}
	if err := ci.nodes[1].Join(ci.nodes[0].Transport().Addr()); err != nil {
		ci.close()
		return nil, fmt.Errorf("join: %w", err)
	}
	for i, n := range ci.nodes {
		if got := len(n.OwnedLocales()); got != clusterLocales/2 || len(n.Members()) != 2 {
			ci.close()
			return nil, fmt.Errorf("placement: node %s owns %d of %d locales with %d members, want %d and 2",
				clusterNodeIDs[i], got, clusterLocales, len(n.Members()), clusterLocales/2)
		}
	}
	return ci, nil
}

// register installs the tenant and the chain on one node. The stage
// body is the same for all three stages: it advances the payload's
// stage counter, and when the flow is traced stamps its start and end
// against the node it ran on.
func (ci *clusterInst) register(node *cluster.Node, self int8) (*cluster.Pipeline, error) {
	stamp := func(ctx *serve.Ctx, code uint64) *reqRec {
		rec := ci.tr.rec(code >> 2)
		if rec == nil {
			return nil
		}
		s := int(code & 3)
		rec.stages = s + 1
		rec.node[s], rec.shard[s], rec.locale[s] = self, int16(ctx.Shard()), int16(ctx.Locale())
		rec.hStart[s] = nowNS()
		return rec
	}
	var handler serve.Handler
	var rekey cluster.StageRoute
	if ci.template == nil {
		handler = func(ctx *serve.Ctx, req serve.Request) (any, error) {
			v := req.Payload.(int)
			if rec := stamp(ctx, uint64(v)); rec != nil {
				rec.hEnd[v&3] = nowNS()
			}
			return v + 1, nil
		}
		rekey = func(v any) (uint64, []string) {
			i, _ := v.(int)
			return mix(ci.seed ^ uint64(i)), dictGlobal
		}
	} else {
		handler = func(ctx *serve.Ctx, req serve.Request) (any, error) {
			b := req.Payload.([]byte)
			s := b[0]
			rec := stamp(ctx, stageCode(binary.LittleEndian.Uint64(b[1:9]), int(s)))
			b[0] = s + 1
			if rec != nil {
				rec.hEnd[s] = nowNS()
			}
			return b, nil
		}
		rekey = func(v any) (uint64, []string) {
			b, _ := v.([]byte)
			if len(b) < 9 {
				return 0, nil
			}
			return mix(ci.seed ^ stageCode(binary.LittleEndian.Uint64(b[1:9]), int(b[0]))), dictGlobal
		}
	}
	tn, err := node.RegisterTenant(cluster.TenantConfig{
		Serve:   serve.TenantConfig{Name: "chain", Handler: handler, CodeSize: 2 << 10},
		Globals: []cluster.GlobalObject{{Name: "dict", Size: 512, Home: 1}},
	})
	if err != nil {
		return nil, err
	}
	return tn.NewPipeline(cluster.PipelineConfig{
		Name:   "chain",
		Stages: []serve.Stage{{Name: "a", Handler: handler}, {Name: "b", Handler: handler}, {Name: "c", Handler: handler}},
		Routes: []cluster.StageRoute{nil, rekey, rekey},
	})
}

func (ci *clusterInst) op(c int, seq uint64, rec *reqRec) bool {
	code := stageCode(seq, 0)
	req := serve.Request{Key: mix(ci.seed ^ code)}
	if ci.template == nil {
		req.Payload = int(code)
	} else {
		// The client's own buffer is free again: a closed-loop client
		// has seen its previous flow complete.
		b := ci.bufs[c]
		copy(b, ci.template)
		b[0] = 0
		binary.LittleEndian.PutUint64(b[1:9], seq)
		req.Payload = b
	}
	if rec != nil {
		rec.t0 = nowNS()
	}
	tk, err := ci.pipe.Submit(req)
	if rec != nil {
		rec.t1 = nowNS()
	}
	if err != nil {
		return false
	}
	r := tk.Wait()
	ok := r.Status == serve.StatusOK && ci.verify(r.Value, seq)
	if rec != nil {
		rec.t2 = nowNS()
		rec.wait, rec.total, rec.ok = int64(r.Wait), int64(r.Total), ok
	}
	return ok
}

// verify checks the flow's value: the int payload comes back advanced
// by three; the 16 KiB payload comes back with byte 0 advanced by three
// and every other byte as it was sent.
func (ci *clusterInst) verify(v any, seq uint64) bool {
	if ci.template == nil {
		got, ok := v.(int)
		return ok && uint64(got) == stageCode(seq, maxStages)
	}
	b, ok := v.([]byte)
	return ok && len(b) == payload16k && b[0] == maxStages &&
		binary.LittleEndian.Uint64(b[1:9]) == seq && bytes.Equal(b[9:], ci.template[9:])
}

func (ci *clusterInst) counters() layerCounters {
	var c layerCounters
	for _, n := range ci.nodes {
		c.addServe(n.Serve().Stats())
		st := n.Stats()
		c.flowsOriginated += st.FlowsOriginated
		c.flowsCompleted += st.FlowsCompleted
		c.remoteStages += st.RemoteStages
		c.localStages += st.LocalStages
		c.wireBytes += st.Wire.BytesSent
		c.wireParcels += st.Wire.ParcelsSent
		c.recoveredFlows += st.RecoveredFlows
		c.staleCompletions += st.StaleCompletions
	}
	return c
}

func (ci *clusterInst) conserve() error { return conserveServe(ci.counters) }

func (ci *clusterInst) close() {
	for _, n := range ci.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// checkPlacement runs after the warm-up: most stage parcels must have
// executed away from their flow's origin, and at the default seed the
// counts must be exactly the pinned ones.
func checkPlacement(w workloadSpec, seed uint64, c layerCounters) error {
	if w.kind != kindCluster {
		return nil
	}
	total := c.remoteStages + c.localStages
	if total == 0 || float64(c.remoteStages)/float64(total) <= 0.5 {
		return fmt.Errorf("placement: %d of %d stage parcels ran remotely after warm-up, want more than half", c.remoteStages, total)
	}
	if pin := pinnedStages[w.warmOps]; seed == defaultSeed && pin != [2]int64{c.remoteStages, c.localStages} {
		return fmt.Errorf("placement: warm-up at seed %d ran %d remote and %d local stage parcels, pinned %d and %d",
			seed, c.remoteStages, c.localStages, pin[0], pin[1])
	}
	return nil
}
