package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// KillNodeConfig seeds the chaos scenario. The zero value is usable.
type KillNodeConfig struct {
	// Seed drives the key stream and the fault injector (default 1).
	Seed uint64
	// Flows is the total flow count (default 96); the first KillAfter
	// run before the crash, the rest while the cluster detects, evicts,
	// and recovers.
	Flows int
	// KillAfter is how many flows are submitted before the victim
	// crashes (default Flows/3).
	KillAfter int
	// Locales sizes the global locale space (default 12).
	Locales int
	// Nodes sizes the cluster (default 3, minimum 2); node 1 dies.
	Nodes int
	// Replicas is the tenant's global replication factor (default 2).
	Replicas int
	// FlowDeadline is each flow's own deadline (default 2s) — the bound
	// within which every Ticket must resolve, dead node or not.
	FlowDeadline time.Duration
	// DetectEvery is the heartbeat period (default 10ms, 2 misses).
	DetectEvery time.Duration
	// FlowTimeout is how long the origin waits on a shipped flow before
	// recovering it (default 250ms).
	FlowTimeout time.Duration
}

// KillNodeReport is the scenario's outcome.
type KillNodeReport struct {
	Submitted int
	// Status census of the resolved flows. OK are served; Shed + Failed
	// + Rejected are the requests the crash cost.
	OK, Shed, Failed, Rejected int
	// DoubleResolves counts flows whose done callback fired more than
	// once, and Unresolved flows that never resolved — the two
	// invariants under test, both always 0 on a correct build: a node
	// death mid-load must neither hang a Ticket.Wait nor resolve one
	// twice.
	DoubleResolves, Unresolved int
	// MembersBefore/After bracket the crash on the surviving nodes.
	MembersBefore, MembersAfter int
	// RecoveryMillis is crash-to-convergence: how long until every
	// survivor evicted the victim and agrees on the shrunken ring.
	RecoveryMillis int64
	// MaxResolveMillis is the slowest flow's submit-to-resolution time.
	MaxResolveMillis int64
	// Survivor-side failure-domain counters, summed.
	Evictions, RecoveredFlows   int64
	StaleCompletions            int64
	RehomedObjects              int64
	RehomePromotions, Rehomes   int64
	ForwardedStages, ObjFetches int64
}

// KillNodeScenario drives a cluster on the in-process fabric under a
// seeded fault injector: flows stream from node 0, node 1 crashes
// mid-load (its process keeps running — a zombie — but every parcel to
// or from it dies on the wire), the survivors' detectors evict it, the
// ring rebalances, pending flows re-route, and the dead arc's globals
// re-home from replicas. It verifies the failure-domain contract: every
// submitted flow resolves exactly once within its deadline.
func KillNodeScenario(cfg KillNodeConfig) (KillNodeReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 96
	}
	if cfg.KillAfter <= 0 || cfg.KillAfter >= cfg.Flows {
		cfg.KillAfter = cfg.Flows / 3
	}
	if cfg.Locales <= 0 {
		cfg.Locales = 12
	}
	if cfg.Nodes < 2 {
		cfg.Nodes = 3
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.FlowDeadline <= 0 {
		cfg.FlowDeadline = 2 * time.Second
	}
	if cfg.DetectEvery <= 0 {
		cfg.DetectEvery = 10 * time.Millisecond
	}
	if cfg.FlowTimeout <= 0 {
		cfg.FlowTimeout = 250 * time.Millisecond
	}
	var rep KillNodeReport

	fabric := parcel.NewFabric()
	faults := parcel.NewFaults(cfg.Seed)
	fabric.Inject(faults)
	nodes := make([]*Node, cfg.Nodes)
	pipes := make([]*Pipeline, cfg.Nodes)
	for i := range nodes {
		node, err := NewNode(Config{
			Transport:  fabric.Node(parcel.NodeID(fmt.Sprintf("kn-n%d", i))),
			System:     litlx.Config{Locales: cfg.Locales, WorkersPerLocale: 2, Seed: cfg.Seed + uint64(i)},
			Serve:      serve.Config{Shards: cfg.Locales, QueueDepth: 4096},
			Detect:     DetectConfig{Every: cfg.DetectEvery, Misses: 2},
			Recover:    RecoverConfig{FlowTimeout: cfg.FlowTimeout, MaxAttempts: 4},
			TraceFlows: true,
		})
		if err != nil {
			return rep, err
		}
		defer node.Close()
		nodes[i] = node
		p, err := registerKN(node, cfg.Locales, cfg.Replicas)
		if err != nil {
			return rep, err
		}
		pipes[i] = p
	}
	for i := 1; i < cfg.Nodes; i++ {
		if err := nodes[i].Join(nodes[0].Transport().Addr()); err != nil {
			return rep, err
		}
	}
	if err := waitMembers(nodes, cfg.Nodes, 10*time.Second); err != nil {
		return rep, err
	}
	rep.MembersBefore = len(nodes[0].Members())

	victim := nodes[1]
	survivors := append([]*Node{nodes[0]}, nodes[2:]...)

	resolved := make([]atomic.Int32, cfg.Flows)
	status := make([]atomic.Int32, cfg.Flows)
	var maxResolveNS atomic.Int64
	var wg sync.WaitGroup
	submit := func(i int) error {
		wg.Add(1)
		slot, st := &resolved[i], &status[i]
		start := time.Now()
		return pipes[0].SubmitFunc(serve.Request{
			Key:      splitmix64(cfg.Seed + uint64(i)),
			Payload:  i,
			Deadline: start.Add(cfg.FlowDeadline),
		}, func(r serve.Result) {
			if slot.Add(1) == 1 {
				st.Store(int32(r.Status))
				took := time.Since(start).Nanoseconds()
				for {
					cur := maxResolveNS.Load()
					if took <= cur || maxResolveNS.CompareAndSwap(cur, took) {
						break
					}
				}
				wg.Done()
			}
		})
	}
	for i := 0; i < cfg.KillAfter; i++ {
		if err := submit(i); err != nil {
			return rep, err
		}
		rep.Submitted++
	}

	crashAt := time.Now()
	faults.Crash(victim.Self())

	for i := cfg.KillAfter; i < cfg.Flows; i++ {
		if err := submit(i); err != nil {
			return rep, err
		}
		rep.Submitted++
	}

	// Crash-to-convergence: every survivor has evicted the victim.
	evicted := func() bool {
		for _, n := range survivors {
			for _, id := range n.Members() {
				if id == victim.Self() {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !evicted(); {
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("cluster: kill-node scenario: victim never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	rep.RecoveryMillis = time.Since(crashAt).Milliseconds()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.FlowDeadline + 30*time.Second):
		// The invariant under test has failed; report Unresolved below.
	}
	// A double resolve races its first resolve by construction; settle
	// briefly so late duplicates are counted, not missed.
	time.Sleep(50 * time.Millisecond)

	rep.MembersAfter = len(nodes[0].Members())
	rep.MaxResolveMillis = maxResolveNS.Load() / 1e6
	for i := range resolved {
		switch c := resolved[i].Load(); {
		case c == 0:
			rep.Unresolved++
		case c > 1:
			rep.DoubleResolves++
		default:
			switch serve.Status(status[i].Load()) {
			case serve.StatusOK:
				rep.OK++
			case serve.StatusShed:
				rep.Shed++
			case serve.StatusRejected:
				rep.Rejected++
			default:
				rep.Failed++
			}
		}
	}
	for _, n := range survivors {
		st := n.Stats()
		rep.Evictions += st.Evictions
		rep.RecoveredFlows += st.RecoveredFlows
		rep.StaleCompletions += st.StaleCompletions
		rep.RehomedObjects += st.RehomedObjects
		rep.ForwardedStages += st.ForwardedStages
		rep.ObjFetches += st.ObjectFetches
		sp := n.System().Space.Stats()
		rep.Rehomes += sp.Rehomes
		rep.RehomePromotions += sp.RehomePromotions
	}
	return rep, nil
}

// registerKN installs the scenario's tenant — one replicated global per
// locale, so the victim's arc always holds some and re-homing is
// exercised at every crash — and a three-stage re-keying pipeline.
func registerKN(n *Node, locales, replicas int) (*Pipeline, error) {
	work := func(_ *serve.Ctx, req serve.Request) (any, error) {
		// A little dwell keeps flows in flight on the victim when it dies.
		time.Sleep(time.Millisecond)
		switch v := req.Payload.(type) {
		case int:
			return v + 1, nil
		default:
			return v, nil
		}
	}
	globals := make([]GlobalObject, locales)
	names := make([]string, locales)
	for i := range globals {
		names[i] = fmt.Sprintf("g%d", i)
		globals[i] = GlobalObject{Name: names[i], Size: 1 << 10, Home: serve.AutoHome}
	}
	t, err := n.RegisterTenant(TenantConfig{
		Serve:    serve.TenantConfig{Name: "kn", Handler: work, CodeSize: 4 << 10},
		Globals:  globals,
		Replicas: replicas,
	})
	if err != nil {
		return nil, err
	}
	rekey := func(v any) (uint64, []string) {
		i, _ := v.(int)
		return splitmix64(uint64(i) * 0x9E3779B97F4A7C15), names
	}
	return t.NewPipeline(PipelineConfig{
		Name:   "chain",
		Stages: []serve.Stage{{Name: "a", Handler: work}, {Name: "b", Handler: work}, {Name: "c", Handler: work}},
		Routes: []StageRoute{nil, rekey, rekey},
	})
}

// waitMembers polls until every node sees want members.
func waitMembers(nodes []*Node, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.Members()) != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: membership did not converge to %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}
