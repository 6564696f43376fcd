package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
	"repro/internal/trace"
)

// recoveryPair boots two nodes on a faulted fabric with per-node config
// tweaks, registers a single-stage tenant whose handler the test
// supplies, and joins them.
func recoveryPair(t *testing.T, handler serve.Handler, tweak func(i int, cfg *Config)) (*parcel.Faults, []*Node, []*Pipeline) {
	return recoveryNodes(t, 2, handler, tweak)
}

// recoveryNodes is recoveryPair for count nodes, all joined to the first.
func recoveryNodes(t *testing.T, count int, handler serve.Handler, tweak func(i int, cfg *Config)) (*parcel.Faults, []*Node, []*Pipeline) {
	t.Helper()
	fabric := parcel.NewFabric()
	faults := parcel.NewFaults(7)
	fabric.Inject(faults)
	nodes := make([]*Node, count)
	pipes := make([]*Pipeline, count)
	for i := range nodes {
		cfg := Config{
			Transport: fabric.Node(parcel.NodeID(fmt.Sprintf("rp%d", i))),
			System:    litlx.Config{Locales: 8, WorkersPerLocale: 2, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: 8, QueueDepth: 1024},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
		tn, err := node.RegisterTenant(TenantConfig{
			Serve: serve.TenantConfig{Name: "rt", Handler: handler},
		})
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		p, err := tn.NewPipeline(PipelineConfig{
			Name:   "p",
			Stages: []serve.Stage{{Name: "s", Handler: handler}},
		})
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		pipes[i] = p
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Transport().Addr()); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if err := waitMembers(nodes, count, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return faults, nodes, pipes
}

// keyOwnedBy finds a routing key whose stage-0 owner is the given node.
func keyOwnedBy(n *Node, p *Pipeline, owner parcel.NodeID) uint64 {
	for k := uint64(1); ; k++ {
		if o, _ := n.ownerOf(p.t.hash, k); o == owner {
			return k
		}
	}
}

// stallFailStage is a transport whose stage parcels stall and then fail
// to send, the way a write to a peer that died mid-send does.
type stallFailStage struct {
	parcel.Transport
	stall time.Duration
}

func (s stallFailStage) Send(dest parcel.NodeID, method string, body []byte) error {
	if method != "cluster.stage" {
		return s.Transport.Send(dest, method, body)
	}
	time.Sleep(s.stall)
	return fmt.Errorf("%w: %s", parcel.ErrPartitioned, dest)
}

// TestForwardFailsAfterRecoveryTookFlow: a stage send that fails only
// after the recovery timer has resolved the flow (here: shed at its
// deadline) must not hand the hop back to serve — the flow is over, and
// running its next stage locally would touch a recycled flow state.
// Stage b is homed on node 1, so node 0 must never run it.
func TestForwardFailsAfterRecoveryTookFlow(t *testing.T) {
	fabric := parcel.NewFabric()
	echo := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }
	var bHere atomic.Int32
	nodes := make([]*Node, 2)
	pipes := make([]*Pipeline, 2)
	for i := range nodes {
		var tr parcel.Transport = fabric.Node(parcel.NodeID(fmt.Sprintf("sf%d", i)))
		if i == 0 {
			tr = stallFailStage{Transport: tr, stall: 100 * time.Millisecond}
		}
		node, err := NewNode(Config{
			Transport: tr,
			System:    litlx.Config{Locales: 8, WorkersPerLocale: 2, Seed: uint64(i) + 1},
			Serve:     serve.Config{Shards: 8},
			Recover:   RecoverConfig{FlowTimeout: time.Second, MaxAttempts: 2},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
		tn, err := node.RegisterTenant(TenantConfig{Serve: serve.TenantConfig{Name: "sf", Handler: echo}})
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		stageB := echo
		if i == 0 {
			stageB = func(c *serve.Ctx, req serve.Request) (any, error) { bHere.Add(1); return echo(c, req) }
		}
		if pipes[i], err = tn.NewPipeline(PipelineConfig{
			Name:   "p",
			Stages: []serve.Stage{{Name: "a", Handler: echo}, {Name: "b", Handler: stageB}},
			Routes: []StageRoute{nil, func(v any) (uint64, []string) { return v.(uint64), nil }},
		}); err != nil {
			t.Fatalf("pipeline: %v", err)
		}
	}
	if err := nodes[1].Join(nodes[0].Transport().Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	here := keyOwnedBy(nodes[0], pipes[0], nodes[0].Self())
	there := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	var resolved atomic.Int32
	shed := make(chan serve.Result, 2)
	req := serve.Request{Key: here, Payload: there, Deadline: time.Now().Add(30 * time.Millisecond)}
	if err := pipes[0].SubmitFunc(req, func(r serve.Result) { resolved.Add(1); shed <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-shed:
		if r.Status != serve.StatusShed {
			t.Fatalf("flow resolved %v (err %v), want shed by recovery", r.Status, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flow never resolved")
	}
	time.Sleep(200 * time.Millisecond) // past the failed send and anything it could start
	if n := resolved.Load(); n != 1 {
		t.Errorf("flow resolved %d times, want 1", n)
	}
	if n := bHere.Load(); n != 0 {
		t.Errorf("stage b ran %d times on node 0 after its flow was shed", n)
	}
	if n := nodes[0].System().Mon.Counter("core.sgt.panic").Value(); n != 0 {
		t.Errorf("%d SGTs panicked on node 0", n)
	}
}

// TestRecoveryExecutorDiesMidStage kills the executor while a shipped
// flow is running on it: the detector evicts it and the recovery timer
// re-routes, so Ticket.Wait returns instead of hanging.
func TestRecoveryExecutorDiesMidStage(t *testing.T) {
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		time.Sleep(30 * time.Millisecond)
		return req.Payload, nil
	}
	faults, nodes, pipes := recoveryPair(t, handler, func(i int, cfg *Config) {
		cfg.Detect = DetectConfig{Every: 5 * time.Millisecond, Misses: 2}
		cfg.Recover = RecoverConfig{FlowTimeout: 50 * time.Millisecond, MaxAttempts: 3}
	})
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the stage parcel land on the victim
	faults.Crash(nodes[1].Self())

	done := make(chan serve.Result, 1)
	go func() { done <- tk.Wait() }()
	select {
	case r := <-done:
		if r.Status != serve.StatusOK {
			t.Fatalf("recovered flow resolved %v (err %v), want OK via local re-execution", r.Status, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Ticket.Wait hung after executor death — recovery never resolved the flow")
	}
	if rf := nodes[0].Stats().RecoveredFlows; rf == 0 {
		t.Fatal("flow resolved without a recovery firing — test raced; RecoveredFlows is 0")
	}
}

// TestZombieCompletionDroppedByEpoch re-routes a flow away from a slow
// (but alive) executor, then lets the original attempt finish: its
// completion carries the old flow epoch and must be dropped, counted in
// StaleCompletions, while the re-routed attempt resolves the flow
// exactly once.
func TestZombieCompletionDroppedByEpoch(t *testing.T) {
	var calls atomic.Int32
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		switch calls.Add(1) {
		case 1:
			time.Sleep(50 * time.Millisecond) // the zombie attempt
		case 2:
			time.Sleep(150 * time.Millisecond) // the winner, after the zombie lands
		}
		return req.Payload, nil
	}
	_, nodes, pipes := recoveryPair(t, handler, func(i int, cfg *Config) {
		cfg.Recover = RecoverConfig{FlowTimeout: -1} // timers off: the test fires recovery itself
	})
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	var resolved atomic.Int32
	var status atomic.Int32
	if err := pipes[0].SubmitFunc(serve.Request{Key: key, Payload: 1}, func(r serve.Result) {
		resolved.Add(1)
		status.Store(int32(r.Status))
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond) // attempt 1 is executing on n1
	nodes[0].recoverFlow(1, 0)        // epoch 1: re-route (still to n1: alive, just slow)

	deadline := time.Now().Add(5 * time.Second)
	for resolved.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flow never resolved")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let any duplicate land
	if got := resolved.Load(); got != 1 {
		t.Fatalf("flow resolved %d times, want exactly 1", got)
	}
	if serve.Status(status.Load()) != serve.StatusOK {
		t.Fatalf("flow resolved %v, want OK from the epoch-1 attempt", serve.Status(status.Load()))
	}
	if sc := nodes[0].Stats().StaleCompletions; sc != 1 {
		t.Fatalf("StaleCompletions = %d, want 1 (the zombie attempt's completion)", sc)
	}
}

// TestForcedRecoveryArmsOnce evicts a flow's executor and holds the
// re-routed attempt past the flow's first recovery due time. The forced
// re-route at the eviction sets the flow's one due time afresh, so
// nothing re-routes it again while that attempt runs: one recovery, no
// stale completion, one OK resolution once the attempt finishes.
func TestForcedRecoveryArmsOnce(t *testing.T) {
	const timeout = 400 * time.Millisecond
	started, gate := make(chan struct{}, 8), make(chan struct{})
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		started <- struct{}{}
		<-gate
		return req.Payload, nil
	}
	faults, nodes, pipes := recoveryNodes(t, 3, handler, func(i int, cfg *Config) {
		cfg.Recover = RecoverConfig{FlowTimeout: timeout, MaxAttempts: 3}
	})
	victim := nodes[1].Self()
	key := keyOwnedBy(nodes[0], pipes[0], victim)
	var resolved atomic.Int32
	results := make(chan serve.Result, 4)
	t0 := time.Now()
	if err := pipes[0].SubmitFunc(serve.Request{Key: key, Payload: 1}, func(r serve.Result) {
		resolved.Add(1)
		results <- r
	}); err != nil {
		t.Fatal(err)
	}
	<-started            // the first attempt runs on the victim...
	faults.Crash(victim) // ...whose completion can no longer return
	time.Sleep(time.Until(t0.Add(timeout * 6 / 10)))
	nodes[0].evict(victim)                            // forced re-route: due again at about 1.6 timeouts
	<-started                                         // the re-routed attempt is running
	time.Sleep(time.Until(t0.Add(timeout * 13 / 10))) // past the first due time
	close(gate)
	select {
	case r := <-results:
		if r.Status != serve.StatusOK {
			t.Fatalf("flow resolved %v (%v), want OK", r.Status, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flow never resolved")
	}
	time.Sleep(100 * time.Millisecond) // let any duplicate land
	st := nodes[0].Stats()
	if n := resolved.Load(); n != 1 {
		t.Errorf("flow resolved %d times, want 1", n)
	}
	if st.RecoveredFlows != 1 {
		t.Errorf("RecoveredFlows = %d, want 1: the flow's first due time re-routed it again", st.RecoveredFlows)
	}
	if st.StaleCompletions != 0 {
		t.Errorf("StaleCompletions = %d, want 0", st.StaleCompletions)
	}
}

// TestSweepMovesForEarlierDeadline ships a flow with no deadline and
// then a deadlined one to an executor whose parcels are lost. The sweep
// is set for the first flow's FlowTimeout when the second ships, so it
// must move up to the second's deadline: that flow resolves shed near
// its deadline, and the first through a re-route once FlowTimeout has
// passed and the wire works again.
func TestSweepMovesForEarlierDeadline(t *testing.T) {
	const timeout = 600 * time.Millisecond
	echo := func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }
	faults, nodes, pipes := recoveryPair(t, echo, func(i int, cfg *Config) {
		cfg.Recover = RecoverConfig{FlowTimeout: timeout, MaxAttempts: 3}
	})
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	faults.SetDrop(1)
	start := time.Now()
	plain, err := pipes[0].Submit(serve.Request{Key: key, Payload: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := start.Add(50 * time.Millisecond)
	dated, err := pipes[0].Submit(serve.Request{Key: key, Payload: 2, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if r := dated.Wait(); r.Status != serve.StatusShed {
		t.Fatalf("deadlined flow resolved %v (%v), want shed", r.Status, r.Err)
	}
	if at := time.Since(start); at > timeout/2 {
		t.Fatalf("deadlined flow resolved %v after submission, want near its 50ms deadline", at)
	}
	faults.SetDrop(0)
	if r := plain.Wait(); r.Status != serve.StatusOK || r.Value != 1 {
		t.Fatalf("flow without deadline resolved %v (%v) value %v, want OK 1", r.Status, r.Err, r.Value)
	}
	if at := time.Since(start); at < timeout {
		t.Fatalf("flow without deadline resolved %v after submission, before its %v FlowTimeout", at, timeout)
	}
	if rf := nodes[0].Stats().RecoveredFlows; rf < 2 {
		t.Fatalf("RecoveredFlows = %d, want a recovery for each flow", rf)
	}
}

// TestRecoveryReencodesMutatedInput re-routes a flow whose first
// executor changed its []byte input in place. On the fabric that input
// aliases the very parcel bytes the origin sent, so a re-route must
// re-encode the origin's own copy of the value: the second attempt has
// to see the bytes as submitted, not as the first attempt left them.
func TestRecoveryReencodesMutatedInput(t *testing.T) {
	var calls atomic.Int32
	mutated, release := make(chan struct{}), make(chan struct{})
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		b := req.Payload.([]byte)
		b[0]++
		if calls.Add(1) == 1 {
			close(mutated)
			<-release // hold attempt 1 until the origin has re-routed past it
		}
		return b, nil
	}
	_, nodes, pipes := recoveryPair(t, handler, func(i int, cfg *Config) {
		cfg.Recover = RecoverConfig{FlowTimeout: -1} // timers off: the test fires recovery itself
	})
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: []byte{10, 20, 30}})
	if err != nil {
		t.Fatal(err)
	}
	<-mutated
	nodes[0].recoverFlow(1, 0) // epoch 1: ships the stage to n1 again
	close(release)             // attempt 1's completion is now stale
	r := tk.Wait()
	if r.Status != serve.StatusOK {
		t.Fatalf("flow resolved %v (%v), want OK", r.Status, r.Err)
	}
	if got, _ := r.Value.([]byte); string(got) != string([]byte{11, 20, 30}) {
		t.Fatalf("second attempt returned %v, want [11 20 30]: it ran on bytes the first attempt changed", r.Value)
	}
	if c := calls.Load(); c != 2 {
		t.Fatalf("handler ran %d times, want 2", c)
	}
}

// TestCompletionRacesRecoveryTimer runs the handler latency right at
// the recovery timeout so completions and recovery firings race
// constantly; every flow must still resolve exactly once.
func TestCompletionRacesRecoveryTimer(t *testing.T) {
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		time.Sleep(10 * time.Millisecond)
		return req.Payload, nil
	}
	_, nodes, pipes := recoveryPair(t, handler, func(i int, cfg *Config) {
		cfg.Recover = RecoverConfig{FlowTimeout: 10 * time.Millisecond, MaxAttempts: 8}
	})
	_ = nodes
	const flows = 64
	resolved := make([]atomic.Int32, flows)
	done := make(chan int, flows)
	submitted := 0
	for i := 0; i < flows; i++ {
		slot := &resolved[i]
		i := i
		if err := pipes[0].SubmitFunc(serve.Request{Key: splitmix64(uint64(i)), Payload: i},
			func(serve.Result) {
				if slot.Add(1) == 1 {
					done <- i
				}
			}); err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	for got := 0; got < submitted; got++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d/%d flows resolved", got, submitted)
		}
	}
	time.Sleep(100 * time.Millisecond) // let duplicates land before counting
	for i := range resolved {
		if c := resolved[i].Load(); c != 1 {
			t.Fatalf("flow %d resolved %d times, want exactly 1", i, c)
		}
	}
}

// TestTicketWaitReturnsOnPartitionedOrigin cuts the origin off from the
// executor right after shipping. The completion cannot return; the
// recovery timer must resolve the flow — by local re-execution within
// the deadline, or by shedding at the deadline — but Wait never hangs.
func TestTicketWaitReturnsOnPartitionedOrigin(t *testing.T) {
	run := func(t *testing.T, flowTimeout time.Duration, wantStatus serve.Status) {
		// The handler holds until the partition is in place, so the
		// executor's completion is cut off however fast the flow ships
		// and runs; a local re-execution finds the gate already open.
		cut := make(chan struct{})
		handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
			<-cut
			return req.Payload, nil
		}
		faults, nodes, pipes := recoveryPair(t, handler, func(i int, cfg *Config) {
			cfg.Recover = RecoverConfig{FlowTimeout: flowTimeout, MaxAttempts: 2}
		})
		key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
		deadline := time.Now().Add(300 * time.Millisecond)
		tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: 1, Deadline: deadline})
		if err != nil {
			t.Fatal(err)
		}
		faults.Partition(nodes[0].Self(), nodes[1].Self())
		close(cut)
		done := make(chan serve.Result, 1)
		go func() { done <- tk.Wait() }()
		select {
		case r := <-done:
			if r.Status != wantStatus {
				t.Fatalf("flow resolved %v (err %v), want %v", r.Status, r.Err, wantStatus)
			}
			if late := time.Since(deadline); late > time.Second {
				t.Fatalf("flow resolved %v after its deadline", late)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Ticket.Wait hung across the partition")
		}
	}
	// Recovery fires well before the deadline: the flow re-executes at
	// the origin and completes OK.
	t.Run("recovers-locally", func(t *testing.T) { run(t, 50*time.Millisecond, serve.StatusOK) })
	// Recovery would fire after the deadline, so the timer clips to the
	// deadline and resolves the flow shed instead of retrying.
	t.Run("sheds-at-deadline", func(t *testing.T) { run(t, 10*time.Second, serve.StatusShed) })
}

// TestDetectorEvictsAndTraces crashes one member of three and checks
// the survivors converge on a two-node ring, count the eviction, and
// record it as a KindAdapt trace event under flow id 0.
func TestDetectorEvictsAndTraces(t *testing.T) {
	fabric := parcel.NewFabric()
	faults := parcel.NewFaults(11)
	fabric.Inject(faults)
	nodes := make([]*Node, 3)
	for i := range nodes {
		node, err := NewNode(Config{
			Transport:  fabric.Node(parcel.NodeID(fmt.Sprintf("de%d", i))),
			System:     litlx.Config{Locales: 8, WorkersPerLocale: 1, Seed: uint64(i) + 1},
			Serve:      serve.Config{Shards: 8},
			Detect:     DetectConfig{Every: 5 * time.Millisecond, Misses: 2},
			TraceFlows: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
	}
	for i := 1; i < 3; i++ {
		if err := nodes[i].Join(nodes[0].Transport().Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := waitMembers(nodes, 3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	faults.Crash(nodes[2].Self())
	if err := waitMembers(nodes[:2], 2, 5*time.Second); err != nil {
		t.Fatalf("survivors never converged after the crash: %v", err)
	}
	if ev := nodes[0].Stats().Evictions + nodes[1].Stats().Evictions; ev < 1 {
		t.Fatalf("no survivor counted an eviction (total %d)", ev)
	}
	// At least one survivor self-detected (rather than installing the
	// other's broadcast) and traced the eviction under flow id 0.
	adaptTraced := false
	for _, n := range nodes[:2] {
		for _, ev := range n.FlowEvents(n.Self(), 0) {
			if ev.Kind == trace.KindAdapt {
				adaptTraced = true
			}
		}
	}
	if !adaptTraced {
		t.Fatal("eviction left no KindAdapt trace event on any survivor")
	}
}

// TestInjectedClockShedsDeadlinedStage pins the executor's clock past
// every deadline: any stage parcel with a deadline must come back shed,
// proving the stage-deadline check reads the node's clock, not the wall.
func TestInjectedClockShedsDeadlinedStage(t *testing.T) {
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		return req.Payload, nil
	}
	farFuture := time.Now().Add(24 * time.Hour)
	_, nodes, pipes := recoveryPair(t, handler, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Clock = func() time.Time { return farFuture }
		}
	})
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())
	tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: 1, Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Status != serve.StatusShed {
		t.Fatalf("stage under a future-pinned clock resolved %v, want StatusShed", r.Status)
	}
}

// TestAutoHomeRoundRobinSkipsExplicitHomes is the regression test for
// the placement bug where AutoHome used the global's slice index — so
// explicitly-homed entries advanced the round-robin and AutoHome
// objects skipped locales and piled up unevenly.
func TestAutoHomeRoundRobinSkipsExplicitHomes(t *testing.T) {
	fabric := parcel.NewFabric()
	node, err := NewNode(Config{
		Transport: fabric.Node("ah0"),
		System:    litlx.Config{Locales: 4, WorkersPerLocale: 1, Seed: 1},
		Serve:     serve.Config{Shards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	tn, err := node.RegisterTenant(TenantConfig{
		Serve: serve.TenantConfig{Name: "ah", Handler: func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil }},
		Globals: []GlobalObject{
			{Name: "explicit", Size: 8, Home: 2},
			{Name: "a0", Size: 8, Home: serve.AutoHome},
			{Name: "a1", Size: 8, Home: serve.AutoHome},
			{Name: "a2", Size: 8, Home: serve.AutoHome},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"explicit": 2, "a0": 0, "a1": 1, "a2": 2}
	for name, home := range want {
		if got := tn.globals[name].Home; got != home {
			t.Errorf("global %q homed at %d, want %d (AutoHome must round-robin over AutoHome entries only)",
				name, got, home)
		}
	}
}

// TestKillNodeScenarioInvariants runs the full chaos scenario at
// replication factors 1 and 2 and asserts the failure-domain contract.
func TestKillNodeScenarioInvariants(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		replicas := replicas
		t.Run(fmt.Sprintf("replicas-%d", replicas), func(t *testing.T) {
			rep, err := KillNodeScenario(KillNodeConfig{Seed: 42, Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("report: %+v", rep)
			if rep.Unresolved != 0 {
				t.Errorf("%d flows never resolved — a Ticket.Wait hung on node death", rep.Unresolved)
			}
			if rep.DoubleResolves != 0 {
				t.Errorf("%d flows resolved more than once", rep.DoubleResolves)
			}
			if rep.MembersAfter != rep.MembersBefore-1 {
				t.Errorf("members %d -> %d, want the victim evicted exactly", rep.MembersBefore, rep.MembersAfter)
			}
			if rep.Evictions < 1 {
				t.Error("no survivor counted an eviction")
			}
			if rep.RehomedObjects == 0 {
				t.Error("no globals re-homed off the dead arc")
			}
			if replicas >= 2 && rep.RehomePromotions == 0 {
				t.Error("replication factor 2 produced no free replica promotions")
			}
		})
	}
}
