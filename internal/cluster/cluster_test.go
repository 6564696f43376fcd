package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
	"repro/internal/trace"
)

// newTestCluster boots n nodes on one in-process fabric, registers the
// test tenant and pipeline symmetrically, and joins everyone to node 0.
func newTestCluster(t *testing.T, count, locales int, traceFlows bool) ([]*Node, []*Pipeline) {
	t.Helper()
	fabric := parcel.NewFabric()
	nodes := make([]*Node, count)
	pipes := make([]*Pipeline, count)
	for i := range nodes {
		node, err := NewNode(Config{
			Transport:  fabric.Node(parcel.NodeID(fmt.Sprintf("n%d", i))),
			System:     litlx.Config{Locales: locales, WorkersPerLocale: 2, Seed: uint64(i) + 1},
			Serve:      serve.Config{Shards: locales, QueueDepth: 1024},
			TraceFlows: traceFlows,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
		pipes[i] = registerTestPipe(t, node)
	}
	for i := 1; i < count; i++ {
		if err := nodes[i].Join(nodes[0].Transport().Addr()); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
	}
	return nodes, pipes
}

func registerTestPipe(t testing.TB, n *Node) *Pipeline {
	t.Helper()
	inc := func(_ *serve.Ctx, req serve.Request) (any, error) {
		return req.Payload.(int) + 1, nil
	}
	rekey := func(v any) (uint64, []string) {
		i, _ := v.(int)
		return splitmix64(uint64(i)*0x9E3779B97F4A7C15 + 7), []string{"dict"}
	}
	return registerChain(t, n, inc, rekey)
}

// registerChain installs the test tenant and a three-stage chain whose
// stages all run step, the second and third re-keyed by rekey.
func registerChain(t testing.TB, n *Node, step serve.Handler, rekey StageRoute) *Pipeline {
	t.Helper()
	tn, err := n.RegisterTenant(TenantConfig{
		Serve:   serve.TenantConfig{Name: "ct", Handler: step, CodeSize: 2 << 10},
		Globals: []GlobalObject{{Name: "dict", Size: 512, Home: 1}},
	})
	if err != nil {
		t.Fatalf("register tenant: %v", err)
	}
	p, err := tn.NewPipeline(PipelineConfig{
		Name:   "chain",
		Stages: []serve.Stage{{Name: "a", Handler: step}, {Name: "b", Handler: step}, {Name: "c", Handler: step}},
		Routes: []StageRoute{nil, rekey, rekey},
	})
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	return p
}

func TestMembershipConvergence(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 8, false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			if len(n.Members()) != 3 {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("node %s: members %v epoch %d", n.Self(), n.Members(), n.Epoch())
			}
			t.Fatal("membership did not converge to 3")
		}
		time.Sleep(time.Millisecond)
	}
	// Same member set → same ring → same routing everywhere.
	want := nodes[0].Members()
	for _, n := range nodes[1:] {
		got := n.Members()
		if len(got) != len(want) {
			t.Fatalf("node %s members %v, want %v", n.Self(), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %s members %v, want %v", n.Self(), got, want)
			}
		}
	}
	for l := 0; l < 8; l++ {
		o0, _ := nodes[0].Ring().Owner(l)
		for _, n := range nodes[1:] {
			if o, _ := n.Ring().Owner(l); o != o0 {
				t.Errorf("locale %d: node %s routes to %s, node %s to %s", l, nodes[0].Self(), o0, n.Self(), o)
			}
		}
	}
}

func TestClusterFlowsCompleteAcrossNodes(t *testing.T) {
	nodes, pipes := newTestCluster(t, 3, 8, false)
	const flows = 48
	tickets := make([]*serve.Ticket, flows)
	for i := 0; i < flows; i++ {
		tk, err := pipes[0].Submit(serve.Request{Key: splitmix64(uint64(i)), Payload: i})
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
			t.Errorf("flow %d: value %d, want %d (three inc stages)", i, got, i+3)
		}
	}
	var remote, local, forwarded int64
	for _, n := range nodes {
		st := n.Stats()
		remote += st.RemoteStages
		local += st.LocalStages
		forwarded += st.ForwardedStages
	}
	if remote == 0 {
		t.Error("no stage executed on a non-origin node — routing never crossed machines")
	}
	if forwarded == 0 {
		t.Error("no stage parcels forwarded")
	}
	t.Logf("stages: remote=%d local=%d forwarded=%d", remote, local, forwarded)
	if got := nodes[0].Stats().FlowsCompleted; got != flows {
		t.Errorf("origin completed %d flows, want %d", got, flows)
	}
}

func TestPercolationSingleFlight(t *testing.T) {
	nodes, pipes := newTestCluster(t, 3, 8, false)
	const flows = 32
	var wg sync.WaitGroup
	wg.Add(flows)
	for i := 0; i < flows; i++ {
		err := pipes[0].SubmitFunc(serve.Request{Key: splitmix64(uint64(i)), Payload: i},
			func(serve.Result) { wg.Done() })
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	var totalRemote int64
	for _, n := range nodes {
		st := n.Stats()
		totalRemote += st.RemoteStages
		// Single-flight: at most one code fetch and one fetch per global
		// object per node, no matter how many stages needed them.
		if st.CodeFetches > 1 {
			t.Errorf("node %s fetched code %d times, want ≤1", n.Self(), st.CodeFetches)
		}
		if st.ObjectFetches > 1 {
			t.Errorf("node %s fetched objects %d times, want ≤1 (one global)", n.Self(), st.ObjectFetches)
		}
		if fetched := st.CodeFetches + st.ObjectFetches; fetched > 0 && st.PercolateBytes == 0 {
			t.Errorf("node %s made %d fetches but counted 0 percolate bytes", n.Self(), fetched)
		}
	}
	if totalRemote == 0 {
		t.Fatal("no remote stages — percolation never exercised")
	}
	var fetches int64
	for _, n := range nodes {
		st := n.Stats()
		fetches += st.CodeFetches + st.ObjectFetches
	}
	if fetches == 0 {
		t.Error("remote stages ran but nothing percolated")
	}
}

func TestStitchFlowMergesAcrossNodes(t *testing.T) {
	nodes, pipes := newTestCluster(t, 3, 8, true)
	const flows = 16
	var wg sync.WaitGroup
	wg.Add(flows)
	for i := 0; i < flows; i++ {
		err := pipes[0].SubmitFunc(serve.Request{Key: splitmix64(uint64(i)), Payload: i},
			func(serve.Result) { wg.Done() })
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	traced := nodes[0].TracedFlows()
	if len(traced) == 0 {
		t.Fatal("no flows traced at the origin — every flow ran fully local?")
	}
	stitched := false
	for _, flow := range traced {
		evs := nodes[0].StitchFlow(flow)
		if len(evs) == 0 {
			t.Errorf("flow %d: stitch returned no events", flow)
			continue
		}
		producers := make(map[int]bool)
		hops := 0
		for _, e := range evs {
			producers[e.Producer] = true
			if e.Kind == trace.KindRemoteHop {
				hops++
			}
		}
		if hops == 0 {
			t.Errorf("flow %d: no remote-hop events in stitched timeline", flow)
		}
		if len(producers) > 1 {
			stitched = true
		}
		// Merge yields the deterministic total order.
		for i := 1; i < len(evs); i++ {
			if !trace.Before(evs[i-1], evs[i]) {
				t.Errorf("flow %d: stitched events out of order at %d", flow, i)
			}
		}
	}
	if !stitched {
		t.Error("no stitched timeline combined events from more than one node")
	}
}

func TestCloseResolvesPending(t *testing.T) {
	_, pipes := newTestCluster(t, 2, 8, false)
	// Find a payload whose stage 0 routes away from n0 so the flow is
	// pending at the origin, then close the origin underneath it.
	n0 := pipes[0].n
	results := make(chan serve.Result, 64)
	submitted := 0
	for i := 0; i < 64; i++ {
		if owner, _ := n0.ownerOf(pipes[0].t.hash, splitmix64(uint64(i))); owner == n0.self {
			continue
		}
		err := pipes[0].SubmitFunc(serve.Request{Key: splitmix64(uint64(i)), Payload: i},
			func(r serve.Result) { results <- r })
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		submitted++
	}
	if submitted == 0 {
		t.Skip("every key routed locally; nothing pending to resolve")
	}
	n0.Close()
	for i := 0; i < submitted; i++ {
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("flow %d/%d never resolved after Close", i, submitted)
		}
	}
	if err := pipes[0].SubmitFunc(serve.Request{}, func(serve.Result) {}); err != ErrNodeClosed {
		t.Errorf("submit after close: %v, want ErrNodeClosed", err)
	}
}

// recordingTransport notes the backing array of every "cluster.members"
// Send body and of every join reply its node's handlers return.
type recordingTransport struct {
	parcel.Transport
	rec *memberRecord
}

type memberRecord struct {
	mu             sync.Mutex
	sends, replies []*byte
}

func (r *recordingTransport) Send(dest parcel.NodeID, method string, body []byte) error {
	if method == "cluster.members" {
		r.rec.mu.Lock()
		r.rec.sends = append(r.rec.sends, &body[0])
		r.rec.mu.Unlock()
	}
	return r.Transport.Send(dest, method, body)
}

func (r *recordingTransport) Handle(method string, h parcel.TransportHandler) {
	r.Transport.Handle(method, func(from parcel.NodeID, body []byte) ([]byte, error) {
		reply, err := h(from, body)
		if method == "cluster.join" && len(reply) > 0 {
			r.rec.mu.Lock()
			r.rec.replies = append(r.rec.replies, &reply[0])
			r.rec.mu.Unlock()
		}
		return reply, err
	})
}

// TestBroadcastHandsEachSendItsOwnBody checks the Transport hand-over
// rule on membership broadcasts: a Send gives its body away, so no two
// "cluster.members" Sends may share a backing array, and none may share
// one with the join reply returned to the caller. Three nodes join a
// fourth: beside its reply, the first join broadcasts to no one, the
// second to one member, and the third to two.
func TestBroadcastHandsEachSendItsOwnBody(t *testing.T) {
	fabric := parcel.NewFabric()
	var rec memberRecord
	nodes := make([]*Node, 4)
	for i := range nodes {
		node, err := NewNode(Config{
			Transport: &recordingTransport{Transport: fabric.Node(parcel.NodeID(fmt.Sprintf("n%d", i))), rec: &rec},
			System:    litlx.Config{Locales: 4, WorkersPerLocale: 1, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: 4},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
		if i > 0 {
			if err := node.Join(nodes[0].Transport().Addr()); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.sends) < 3 || len(rec.replies) < 3 {
		t.Fatalf("recorded %d member Sends and %d replies, want at least 3 and 3", len(rec.sends), len(rec.replies))
	}
	seen := make(map[*byte]string)
	for _, p := range rec.replies {
		seen[p] = "a join reply"
	}
	for i, p := range rec.sends {
		if what, ok := seen[p]; ok {
			t.Fatalf("member Send %d shares its body with %s", i, what)
		}
		seen[p] = fmt.Sprintf("member Send %d", i)
	}
}

// TestClusterStatsCarriesPeerStats asks a quiet two-node cluster for
// its stats: the peer's entry is the peer's Stats exactly as it
// reported them, every field, nested Wire stats included.
func TestClusterStatsCarriesPeerStats(t *testing.T) {
	nodes, _ := newTestCluster(t, 2, 8, false)
	all := nodes[0].ClusterStats()
	if len(all) != 2 || all[1].Node != string(nodes[1].Self()) {
		t.Fatalf("ClusterStats = %+v, want n0 and n1", all)
	}
	got, want := all[1], nodes[1].Stats()
	// The peer snapshot its Stats before it sent the reply carrying them.
	want.Wire.BytesSent -= int64(len(encode(got)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("peer stats over the wire = %+v, want %+v", got, want)
	}
}
