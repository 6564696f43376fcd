package cluster

import (
	"encoding/binary"
	"runtime"
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
// With big set the chain carries a []byte (registerBytesPipe) instead
// of an int.
func benchChain(b testing.TB, tcp, big bool) *Pipeline {
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
		register := registerTestPipe
		if big {
			register = registerBytesPipe
		}
		if p := register(b, node); i == 0 {
			pipe = p
		}
	}
	if err := nodes[1].Join(nodes[0].Transport().Addr()); err != nil {
		b.Fatal(err)
	}
	return pipe
}

// registerBytesPipe is registerTestPipe's chain over a []byte payload:
// each stage advances byte 0 in place, and bytes 1..8 (the flow's
// sequence number) with byte 0 pick the next stage's key.
func registerBytesPipe(t testing.TB, n *Node) *Pipeline {
	t.Helper()
	step := func(_ *serve.Ctx, req serve.Request) (any, error) {
		p := req.Payload.([]byte)
		p[0]++
		return p, nil
	}
	rekey := func(v any) (uint64, []string) {
		p, _ := v.([]byte)
		if len(p) < 9 {
			return 0, nil
		}
		return splitmix64(binary.LittleEndian.Uint64(p[1:9])*0x9E3779B97F4A7C15 + uint64(p[0])), []string{"dict"}
	}
	return registerChain(t, n, step, rekey)
}

// runChain submits one flow per iteration and waits for it: the
// closed-loop cost of a flow, wire and both nodes included. A non-nil
// buf is the []byte payload every flow carries in turn (a closed loop
// has seen the previous flow finish before it reuses the buffer).
func runChain(b *testing.B, p *Pipeline, buf []byte) {
	for i := 0; i < 64; i++ { // percolate code and globals before timing
		mustFlow(b, p, i, buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFlow(b, p, i, buf)
	}
}

// mustFlow runs flow i and checks that every stage ran once.
func mustFlow(b testing.TB, p *Pipeline, i int, buf []byte) {
	var payload any = i
	if buf != nil {
		buf[0] = 0
		binary.LittleEndian.PutUint64(buf[1:9], uint64(i))
		payload = buf
	}
	tk, err := p.Submit(serve.Request{Key: splitmix64(uint64(i)), Payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	r := tk.Wait()
	if r.Status != serve.StatusOK {
		b.Fatalf("flow %d: %v (%v)", i, r.Status, r.Err)
	}
	if buf == nil {
		if r.Value != i+3 {
			b.Fatalf("flow %d returned %v", i, r.Value)
		}
	} else if v, _ := r.Value.([]byte); len(v) != len(buf) || v[0] != 3 || binary.LittleEndian.Uint64(v[1:9]) != uint64(i) {
		b.Fatalf("flow %d returned a wrong payload", i)
	}
}

func BenchmarkFlowFabric(b *testing.B) { runChain(b, benchChain(b, false, false), nil) }

// TestFlowFabricAllocs gates what one flow of the benchmark chain
// allocates on the fabric, both nodes included. A cluster flow is one
// pooled serve flow on each node it runs on, and a remote hop hands its
// router a handle, and a fabric parcel is delivered by a function call
// under a recovery sweep that arms no timer per flow, so what is left is
// the codec, the arrival records and the flow's ticket. On amd64 that
// is 16 at AllocsPerRun's GOMAXPROCS of 1 (BenchmarkFlowFabric at 2
// reads 18); the bound leaves 3 for noise.
func TestFlowFabricAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := benchChain(t, false, false)
	i := 0
	for ; i < 64; i++ { // percolate code and globals first
		mustFlow(t, p, i, nil)
	}
	allocs := testing.AllocsPerRun(500, func() {
		mustFlow(t, p, i, nil)
		i++
	})
	if allocs > 19 {
		t.Errorf("a fabric flow allocates %.1f times, want at most 19", allocs)
	}
}

func BenchmarkFlowTCP(b *testing.B) { runChain(b, benchChain(b, true, false), nil) }

// BenchmarkFlowTCP16k carries 16 KiB through every stage over
// loopback TCP: the per-byte cost of the wire path.
func BenchmarkFlowTCP16k(b *testing.B) {
	runChain(b, benchChain(b, true, true), make([]byte, 16<<10))
}

// TestFlowTCP16kBytes gates the bytes one 16 KiB flow of the benchmark
// chain allocates on loopback TCP, both nodes included. The origin
// copies the caller's buffer into one stage parcel body; every later
// parcel of the flow is re-headed into the body it arrived in, and
// netparcel reads arriving bodies into written ones. So a flow costs
// about one body: 16.7 KB here on amd64, where copying the value into a
// new body at every hop cost 36.5 KB. The bound leaves 3.7 KB for noise.
func TestFlowTCP16kBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := benchChain(t, true, true)
	buf := make([]byte, 16<<10)
	i := 0
	for ; i < 64; i++ { // percolate code and globals first
		mustFlow(t, p, i, buf)
	}
	const flows = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range flows {
		mustFlow(t, p, i, buf)
		i++
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / flows; b > 20<<10 {
		t.Errorf("a 16 KiB TCP flow allocates %d bytes, want at most %d", b, 20<<10)
	}
}
