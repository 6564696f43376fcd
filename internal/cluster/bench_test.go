package cluster

import (
	"testing"

	"repro/internal/cluster/netparcel"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// benchChain boots the two-node, three-stage re-keyed chain the repo
// benchmark's cluster workloads run (the same node ids, so each node
// owns four of the eight locales) on the fabric or on loopback TCP,
// and returns the pipeline flows are submitted to on the first node.
func benchChain(b *testing.B, tcp bool) *Pipeline {
	b.Helper()
	fabric := parcel.NewFabric()
	var pipe *Pipeline
	var nodes [2]*Node
	for i, id := range [2]parcel.NodeID{"node-2", "node-4"} {
		var tr parcel.Transport = fabric.Node(id)
		if tcp {
			nt, err := netparcel.Listen(id, "127.0.0.1:0", netparcel.Config{})
			if err != nil {
				b.Fatal(err)
			}
			tr = nt
		}
		node, err := NewNode(Config{
			Transport: tr,
			System:    litlx.Config{Locales: 8, WorkersPerLocale: 1, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: 8, Batch: 32},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(node.Close)
		nodes[i] = node
		if p := registerTestPipe(b, node); i == 0 {
			pipe = p
		}
	}
	if err := nodes[1].Join(nodes[0].Transport().Addr()); err != nil {
		b.Fatal(err)
	}
	return pipe
}

// runChain submits one flow per iteration and waits for it: the
// closed-loop cost of a flow, wire and both nodes included.
func runChain(b *testing.B, p *Pipeline) {
	for i := 0; i < 64; i++ { // percolate code and globals before timing
		if r := mustFlow(b, p, i); r != i+3 {
			b.Fatalf("warm-up flow %d returned %d", i, r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFlow(b, p, i)
	}
}

func mustFlow(b *testing.B, p *Pipeline, i int) int {
	tk, err := p.Submit(serve.Request{Key: splitmix64(uint64(i)), Payload: i})
	if err != nil {
		b.Fatal(err)
	}
	r := tk.Wait()
	if r.Status != serve.StatusOK {
		b.Fatalf("flow %d: %v (%v)", i, r.Status, r.Err)
	}
	return r.Value.(int)
}

func BenchmarkFlowFabric(b *testing.B) { runChain(b, benchChain(b, false)) }

func BenchmarkFlowTCP(b *testing.B) { runChain(b, benchChain(b, true)) }
