package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster/netparcel"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// TestTwoNodeSmoke boots two nodes on real localhost TCP, joins them,
// and drives pipelined flows whose stages re-key across the ring — the
// end-to-end path CI's smoke job exercises through htserved: stage
// parcels, completions, and percolation all cross an actual socket.
func TestTwoNodeSmoke(t *testing.T) {
	const locales = 8
	newNode := func(i int) (*Node, *Pipeline) {
		tr, err := netparcel.Listen(parcel.NodeID(fmt.Sprintf("smoke-n%d", i)), "127.0.0.1:0", netparcel.Config{})
		if err != nil {
			t.Fatalf("listen node %d: %v", i, err)
		}
		node, err := NewNode(Config{
			Transport: tr,
			System:    litlx.Config{Locales: locales, WorkersPerLocale: 2, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: locales, QueueDepth: 1024},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(func() { node.Close() })
		return node, registerTestPipe(t, node)
	}
	n0, p0 := newNode(0)
	n1, _ := newNode(1)
	if err := n1.Join(n0.Transport().Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := len(n0.Members()); got != 2 {
		t.Fatalf("n0 has %d members after join, want 2", got)
	}

	const flows = 64
	tickets := make([]*serve.Ticket, flows)
	for i := 0; i < flows; i++ {
		tk, err := p0.Submit(serve.Request{Key: splitmix64(uint64(i)), Payload: i})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		r := tk.Wait()
		if r.Status != serve.StatusOK {
			t.Fatalf("flow %d: status %v err %v", i, r.Status, r.Err)
		}
		if got := r.Value.(int); got != i+3 {
			t.Errorf("flow %d: value %d, want %d", i, got, i+3)
		}
	}

	s0, s1 := n0.Stats(), n1.Stats()
	if remote := s0.RemoteStages + s1.RemoteStages; remote == 0 {
		t.Error("no stage executed on the non-origin node over TCP")
	}
	if s0.Wire.BytesSent == 0 || s1.Wire.BytesRecv == 0 {
		t.Errorf("no bytes crossed the socket: n0 sent %d, n1 received %d",
			s0.Wire.BytesSent, s1.Wire.BytesRecv)
	}
	if s1.RemoteStages > 0 && s1.CodeFetches == 0 {
		t.Error("n1 ran remote stages without ever percolating the code image")
	}
	t.Logf("n0: %+v", s0)
	t.Logf("n1: %+v", s1)
}

// TestColdStageFetchesOffReadLoop ships a flow's first stage to a node
// that holds neither the tenant's code image nor the stage's global,
// both of which live on the origin. The stage parcel arrives on the
// executor's read loop for its one connection to the origin, and the
// replies to its two fetches come back on that same read loop — so the
// fetch must run off it, or the flow hangs until the call timeout.
func TestColdStageFetchesOffReadLoop(t *testing.T) {
	const locales = 8
	nodes := make([]*Node, 2)
	pipes := make([]*Pipeline, 2)
	for i := range nodes {
		tr, err := netparcel.Listen(parcel.NodeID(fmt.Sprintf("cold%d", i)), "127.0.0.1:0", netparcel.Config{})
		if err != nil {
			t.Fatalf("listen node %d: %v", i, err)
		}
		node, err := NewNode(Config{
			Transport: tr,
			System:    litlx.Config{Locales: locales, WorkersPerLocale: 1, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: locales},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		inc := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload.(int) + 1, nil }
		tn, err := node.RegisterTenant(TenantConfig{
			Serve:   serve.TenantConfig{Name: "cold", Handler: inc, CodeSize: 2 << 10},
			Globals: []GlobalObject{{Name: "dict", Size: 512, Home: 1}},
		})
		if err != nil {
			t.Fatalf("register tenant: %v", err)
		}
		// One stage, keyed by its input, reading the global.
		pipes[i], err = tn.NewPipeline(PipelineConfig{
			Name:   "one",
			Stages: []serve.Stage{{Name: "a", Handler: inc}},
			Routes: []StageRoute{func(v any) (uint64, []string) { return uint64(v.(int)), []string{"dict"} }},
		})
		if err != nil {
			t.Fatalf("new pipeline: %v", err)
		}
		nodes[i] = node
	}
	if err := nodes[1].Join(nodes[0].Transport().Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	// These ids split the ring 4/4 and home "dict" (locale 1) on cold0,
	// the origin; the stage goes to the first key cold1 owns.
	origin, exec, p := nodes[0], nodes[1], pipes[0]
	if home, _ := origin.Ring().Owner(1); home != origin.Self() || len(exec.OwnedLocales()) == 0 {
		t.Fatalf("placement changed: locale 1 owned by %s, executor owns %v", home, exec.OwnedLocales())
	}
	owner := func(key int) parcel.NodeID { o, _ := origin.ownerOf(p.t.hash, uint64(key)); return o }
	key := 0
	for owner(key) != exec.Self() {
		key++
	}
	res := make(chan serve.Result, 1)
	if err := p.SubmitFunc(serve.Request{Payload: key}, func(r serve.Result) { res <- r }); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case r := <-res:
		if r.Status != serve.StatusOK || r.Value != key+1 {
			t.Fatalf("flow resolved %v value %v err %v, want StatusOK value %d", r.Status, r.Value, r.Err, key+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flow did not resolve within 5s: the cold stage fetched on the read loop that must deliver its replies")
	}
	if st := exec.Stats(); st.CodeFetches != 1 || st.ObjectFetches != 1 {
		t.Errorf("executor fetched code %d and objects %d times, want 1 and 1", st.CodeFetches, st.ObjectFetches)
	}
	// The fetch is the cold image's one price: neither node's serve layer
	// also charges its modeled code transfer.
	for _, n := range nodes {
		if got := n.Serve().Stats().CodeTransfers; got != 0 {
			t.Errorf("node %s serve layer paid %d modeled code transfers on top of the fetch, want 0", n.Self(), got)
		}
	}
}
