package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// newChainNodes boots one fabric node per id with the benchmark's node
// shape (8 locales, one worker each), registers the test chain on every
// node, and joins everyone to the first.
func newChainNodes(t *testing.T, ids ...parcel.NodeID) ([]*Node, []*Pipeline) {
	t.Helper()
	fabric := parcel.NewFabric()
	nodes := make([]*Node, len(ids))
	pipes := make([]*Pipeline, len(ids))
	for i, id := range ids {
		node, err := NewNode(Config{
			Transport: fabric.Node(id),
			System:    litlx.Config{Locales: 8, WorkersPerLocale: 1, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: 8, Batch: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i], pipes[i] = node, registerTestPipe(t, node)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Transport().Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, pipes
}

// runChainFlows submits flows seeded flows at p concurrently and waits
// for every one to return its value advanced by the three stages.
func runChainFlows(t *testing.T, p *Pipeline, flows int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, flows)
	for i := 0; i < flows; i++ {
		wg.Add(1)
		err := p.SubmitFunc(serve.Request{Key: splitmix64(uint64(i) ^ 0x5eed), Payload: i}, func(r serve.Result) {
			defer wg.Done()
			if v, _ := r.Value.(int); r.Status != serve.StatusOK || v != i+3 {
				errs <- fmt.Errorf("flow %d: %v (%v) value %v", i, r.Status, r.Err, r.Value)
			}
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStagePlacementCountsPinned pins where the stages of a re-keyed
// chain run. Placement is a pure function of the node ids and the flow
// keys, so the stage and parcel counts are exact: a change that moves
// them changes routing or wire traffic, and the repo benchmark (which
// pins the same counters for its cluster workloads) would abort.
func TestStagePlacementCountsPinned(t *testing.T) {
	nodes, pipes := newChainNodes(t, "node-2", "node-4")
	runChainFlows(t, pipes[0], 500)
	var remote, local, forwarded, parcels int64
	for _, n := range nodes {
		st := n.Stats()
		remote += st.RemoteStages
		local += st.LocalStages
		forwarded += st.ForwardedStages
		parcels += st.Wire.ParcelsSent
	}
	got := [4]int64{remote, local, forwarded, parcels}
	if want := [4]int64{782, 322, 767, 1027}; got != want {
		t.Errorf("remote, local, forwarded stages and parcels sent = %v, pinned %v", got, want)
	}
}

// TestClusterPipelineIsOneServePipeline checks that a cluster pipeline
// runs every stage on its one serve pipeline, whichever node the stage
// lands on: summed over the nodes, each stage's Done count is the flow
// count, and no per-stage side pipeline is registered anywhere.
func TestClusterPipelineIsOneServePipeline(t *testing.T) {
	const flows = 300
	nodes, pipes := newChainNodes(t, "node-1", "node-2", "node-4")
	runChainFlows(t, pipes[0], flows)
	done := make([]int64, pipes[0].Len())
	for _, p := range pipes {
		for i, ss := range p.sp.StageStats() {
			done[i] += ss.Done
		}
	}
	for i, d := range done {
		if d != flows {
			t.Errorf("stage %d ran %d times across the cluster, want %d", i, d, flows)
		}
	}
	for _, n := range nodes {
		for _, name := range n.System().Mon.Snapshot().Names() {
			for i := 0; i < pipes[0].Len(); i++ {
				if strings.HasPrefix(name, fmt.Sprintf("serve.pipe.ct.chain.s%d.", i)) {
					t.Errorf("node %s registers side-pipeline instrument %s", n.Self(), name)
				}
			}
		}
	}
}
