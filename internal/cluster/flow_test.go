package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// holdStageSend is a transport whose stage parcels are delivered at
// once but whose Send returns only after the flow has completed, the
// way a fabric delivery goroutine can finish the remote stage and the
// completion before the sender resumes. It records the sending node's
// ForwardedStages at that moment.
type holdStageSend struct {
	parcel.Transport
	node *Node         // set before any stage parcel is sent
	done chan struct{} // closed by the flow's done callback
	seen atomic.Int64
}

func (h *holdStageSend) Send(dest parcel.NodeID, method string, body []byte) error {
	err := h.Transport.Send(dest, method, body)
	if method == "cluster.stage" && err == nil {
		select {
		case <-h.done:
			h.seen.Store(h.node.Stats().ForwardedStages)
		case <-time.After(5 * time.Second):
			h.seen.Store(-1)
		}
	}
	return err
}

// TestForwardedStagesCountedBeforeSendReturns: a forwarded stage is
// counted before its parcel can complete the flow, so Stats read once
// the flow is done never misses it.
func TestForwardedStagesCountedBeforeSendReturns(t *testing.T) {
	hold := &holdStageSend{done: make(chan struct{})}
	echo := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }
	_, nodes, pipes := recoveryPair(t, echo, func(i int, cfg *Config) {
		if i == 0 {
			hold.Transport, cfg.Transport = cfg.Transport, hold
		}
	})
	hold.node = nodes[0]
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	var status atomic.Int32
	err := pipes[0].SubmitFunc(serve.Request{Key: key, Payload: 1}, func(r serve.Result) {
		status.Store(int32(r.Status))
		close(hold.done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := serve.Status(status.Load()); s != serve.StatusOK {
		t.Fatalf("flow resolved %v, want ok", s)
	}
	switch got := hold.seen.Load(); got {
	case -1:
		t.Fatal("flow did not complete while its stage parcel's Send was held")
	case 1:
	default:
		t.Errorf("ForwardedStages = %d once the forwarded flow completed, want 1", got)
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

// TestFlowsOriginatedCountedBeforeCompletion: a flow counts as
// originated before it can complete, so a Stats read from inside its
// done callback never shows more flows completed than originated. The
// flow here ships at admission, and its stage parcel's Send returns
// only after the flow has completed.
func TestFlowsOriginatedCountedBeforeCompletion(t *testing.T) {
	hold := &holdStageSend{done: make(chan struct{})}
	echo := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }
	_, nodes, pipes := recoveryPair(t, echo, func(i int, cfg *Config) {
		if i == 0 {
			hold.Transport, cfg.Transport = cfg.Transport, hold
		}
	})
	hold.node = nodes[0]
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	var seen Stats
	err := pipes[0].SubmitFunc(serve.Request{Key: key, Payload: 1}, func(serve.Result) {
		seen = nodes[0].Stats()
		close(hold.done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hold.seen.Load() == -1 {
		t.Fatal("flow did not complete while its stage parcel's Send was held")
	}
	if seen.FlowsCompleted != 1 || seen.FlowsOriginated != 1 {
		t.Errorf("done callback saw %d flows completed, %d originated; want 1 and 1",
			seen.FlowsCompleted, seen.FlowsOriginated)
	}
}

// TestAdmissionShipsFromOneServeFlow: a flow whose stage 0 the ring
// homes on the peer ships at admission, and is still one serve flow at
// its origin — counted once by serve, in flight until the completion
// parcel ends it. Its stage runs, and is counted, once: on the peer.
func TestAdmissionShipsFromOneServeFlow(t *testing.T) {
	echo := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }
	_, nodes, pipes := recoveryPair(t, echo, nil)
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	const flows = 50
	for i := 0; i < flows; i++ {
		tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: i})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Status != serve.StatusOK || r.Value != i {
			t.Fatalf("flow %d: %v (%v) value %v", i, r.Status, r.Err, r.Value)
		}
	}
	if fs := nodes[0].Serve().Stats().Flow; fs.Submitted != flows || fs.InFlight() != 0 {
		t.Errorf("origin serve flows: %d submitted, %d in flight; want %d and 0", fs.Submitted, fs.InFlight(), flows)
	}
	origin, peer := nodes[0].Stats(), nodes[1].Stats()
	if origin.FlowsOriginated != flows || origin.FlowsCompleted != flows || origin.ForwardedStages != flows {
		t.Errorf("origin: %d flows originated, %d completed, %d stages forwarded; want %d each",
			origin.FlowsOriginated, origin.FlowsCompleted, origin.ForwardedStages, flows)
	}
	if peer.RemoteStages != flows || peer.LocalStages != 0 || origin.RemoteStages+origin.LocalStages != 0 {
		t.Errorf("stages counted: peer %d remote, %d local; origin %d remote, %d local; want only the peer's %d remote",
			peer.RemoteStages, peer.LocalStages, origin.RemoteStages, origin.LocalStages, flows)
	}
}

// TestStageForUnknownPipelineFails ships a flow to a node that never
// registered its pipeline: the receiver answers with a StatusFailed
// completion naming the pipeline id, so the origin's flow resolves at
// once instead of waiting out recovery.
func TestStageForUnknownPipelineFails(t *testing.T) {
	echo := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }
	_, nodes, _ := recoveryPair(t, echo, nil)
	p, err := nodes[0].tenant("rt").NewPipeline(PipelineConfig{
		Name:   "origin-only",
		Stages: []serve.Stage{{Name: "s", Handler: echo}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.Submit(serve.Request{Key: keyOwnedBy(nodes[0], p, nodes[1].Self()), Payload: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	want := fmt.Sprintf("has no pipeline %#x", p.id)
	if r.Status != serve.StatusFailed || r.Err == nil || !strings.Contains(r.Err.Error(), want) {
		t.Fatalf("flow resolved %v (%v), want StatusFailed with %q", r.Status, r.Err, want)
	}
	if rf := nodes[0].Stats().RecoveredFlows; rf != 0 {
		t.Errorf("recovery fired %d times, want the completion to resolve the flow", rf)
	}
}

// TestNewPipelineRefusesHeldID plants a pipeline under the id another
// (tenant, name) hashes to — the state a hash collision leaves — and
// checks NewPipeline refuses that pair rather than take over the id.
func TestNewPipelineRefusesHeldID(t *testing.T) {
	nodes, pipes := newChainNodes(t, "node-1")
	held := pipes[0]
	(*nodes[0].pipes.Load())[pipeID("ct", "other")] = held
	_, err := held.t.NewPipeline(PipelineConfig{
		Name:   "other",
		Stages: []serve.Stage{{Name: "s", Handler: func(*serve.Ctx, serve.Request) (any, error) { return nil, nil }}},
	})
	if err == nil || !strings.Contains(err.Error(), "is held by ct/chain") {
		t.Fatalf("NewPipeline = %v, want a refusal naming ct/chain", err)
	}
	if got := nodes[0].pipeline(pipeID("ct", "other")); got != held {
		t.Fatalf("the id now names %s/%s, want it still held by ct/chain", got.t.name, got.name)
	}
}

// poisonSend is a transport that delivers a copy of every Send body and
// then fills the original's whole array, to its capacity, with 0xA5: a
// layer that reads, changes or resends a body after shipping it hands
// on poison.
type poisonSend struct{ parcel.Transport }

func (p poisonSend) Send(dest parcel.NodeID, method string, body []byte) error {
	if err := p.Transport.Send(dest, method, bytes.Clone(body)); err != nil {
		return err // a failed Send leaves the body with its sender
	}
	full := body[:cap(body)]
	for i := range full {
		full[i] = 0xA5
	}
	return nil
}

// TestShippedBodyIsDead runs a []byte chain over poisonSend and checks
// every byte of every result, so no layer reads a body after shipping
// it. Each stage shortens the value by a byte, so across the flows the
// arrived value is re-headed in place, shipped in a new body when its
// length prefix shrinks, and moved down behind a completion's fields.
func TestShippedBodyIsDead(t *testing.T) {
	step := func(_ *serve.Ctx, req serve.Request) (any, error) {
		p := req.Payload.([]byte)
		p[0]++
		return p[:len(p)-1], nil
	}
	rekey := func(v any) (uint64, []string) {
		p := v.([]byte)
		return splitmix64(binary.LittleEndian.Uint64(p[1:9])*0x9E3779B97F4A7C15 + uint64(p[0])), nil
	}
	fabric := parcel.NewFabric()
	var nodes [2]*Node
	var pipe *Pipeline
	for i, id := range []parcel.NodeID{"node-2", "node-4"} {
		node, err := NewNode(Config{
			Transport: poisonSend{fabric.Node(id)},
			System:    litlx.Config{Locales: 8, WorkersPerLocale: 1, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: 8, Batch: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
		if p := registerChain(t, node, step, rekey); i == 0 {
			pipe = p
		}
	}
	if err := nodes[1].Join(nodes[0].Transport().Addr()); err != nil {
		t.Fatal(err)
	}

	const flows = 200
	// payload is flow i's input: bytes 1..8 its number, the rest a
	// pattern. Some lengths cross 128, where the length prefix shrinks.
	payload := func(i int) []byte {
		b := make([]byte, 127+i%8+i%2*(4<<10))
		for j := range b {
			b[j] = byte(i + j*31)
		}
		b[0] = 0
		binary.LittleEndian.PutUint64(b[1:9], uint64(i))
		return b
	}
	var wg sync.WaitGroup
	errs := make(chan error, flows)
	for i := range flows {
		wg.Add(1)
		err := pipe.SubmitFunc(serve.Request{Key: splitmix64(uint64(i)), Payload: payload(i)}, func(r serve.Result) {
			defer wg.Done()
			want := payload(i)
			want[0] = 3
			if v, _ := r.Value.([]byte); r.Status != serve.StatusOK || !bytes.Equal(v, want[:len(want)-3]) {
				errs <- fmt.Errorf("flow %d: %v (%v) returned % x", i, r.Status, r.Err, v)
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
	if nodes[1].Stats().ForwardedStages == 0 {
		t.Error("no stage parcel was shipped onward from an arrival")
	}
}
