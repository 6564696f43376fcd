package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/serve"
)

// The scripted run's fixed shape: three fabric nodes over a 12-locale
// space; every flow is due within runDeadline; heartbeats every 10 ms,
// two misses evict; a shipped flow is recovered after 250 ms, at most
// four times.
const (
	runNodes    = 3
	runLocales  = 12
	runDeadline = 2 * time.Second
	// runBound bounds the wait for the last flow once both waves are in;
	// a flow still open then is reported Unresolved, not waited on.
	runBound = 30 * time.Second
)

// KillNodeConfig seeds the chaos scenario. The zero value is usable.
type KillNodeConfig struct {
	// Seed drives the key stream and the fault injector (default 1).
	Seed uint64
	// Flows is the total flow count (default 96); the first third run
	// before the crash, the rest while the cluster detects, evicts, and
	// recovers.
	Flows int
	// Replicas is the tenant's global replication factor (default 2).
	Replicas int
}

// KillNodeReport is the scenario's outcome.
type KillNodeReport struct {
	Submitted int
	// Status census of the flows, each counted once by its first
	// resolution. OK are served; Shed + Failed + Rejected are the
	// requests the crash cost.
	OK, Shed, Failed, Rejected int
	// DoubleResolves counts resolutions past a flow's first, and
	// Unresolved flows still open at the run's bound — the two
	// invariants under test, both always 0 on a correct build: a node
	// death mid-load must neither hang a Ticket.Wait nor resolve one
	// twice.
	DoubleResolves, Unresolved int
	// MembersBefore/After bracket the crash on the surviving nodes.
	MembersBefore, MembersAfter int
	// RecoveryMillis is crash-to-convergence: how long until every
	// survivor evicted the victim and agrees on the shrunken ring.
	RecoveryMillis int64
	// MaxResolveMillis is the slowest flow's admission-to-resolution time.
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
	r := scriptedRun{seed: cfg.Seed, flows: orDefault(cfg.Flows, 96), replicas: orDefault(cfg.Replicas, 2), crash: true}
	r.wave = r.flows / 3
	var rep KillNodeReport
	out, err := r.play(func(live []*Node) {
		for _, n := range live {
			st, sp := n.Stats(), n.System().Space.Stats()
			rep.Evictions += st.Evictions
			rep.RecoveredFlows += st.RecoveredFlows
			rep.StaleCompletions += st.StaleCompletions
			rep.RehomedObjects += st.RehomedObjects
			rep.ForwardedStages += st.ForwardedStages
			rep.ObjFetches += st.ObjectFetches
			rep.Rehomes += sp.Rehomes
			rep.RehomePromotions += sp.RehomePromotions
		}
	})
	rep.Submitted, rep.OK, rep.Shed, rep.Failed, rep.Rejected = r.flows, out.OK, out.Shed, out.Failed, out.Rejected
	rep.DoubleResolves, rep.Unresolved = out.Duplicates, out.Unresolved
	rep.MembersBefore, rep.MembersAfter = out.membersBefore, out.membersAfter
	rep.RecoveryMillis, rep.MaxResolveMillis = out.recovery.Milliseconds(), out.Slowest.Milliseconds()
	return rep, err
}

// SplitBrainJoinConfig seeds the scenario. The zero value is usable.
type SplitBrainJoinConfig struct {
	// Seed drives the key stream (default 1).
	Seed uint64
	// Flows is the total flow count (default 64); the first half runs on
	// the two-node cluster, the third node joins while they may still be
	// in flight, and the second half runs on the rebalanced ring.
	Flows int
}

// SplitBrainJoinReport is the scenario's outcome. Submitted, Completed,
// DoubleResolves, MembersBefore/After, and MovedLocales are
// deterministic for a given config; the stage counters depend on how
// far the first wave has progressed when the join lands and are
// reported for inspection, not asserted.
type SplitBrainJoinReport struct {
	// Completed counts the flows resolved, each once whatever its
	// status.
	Submitted, Completed int
	// DoubleResolves counts resolutions past a flow's first — the
	// invariant under test: a mid-load membership change must not let a
	// completion land twice. Always 0 on a correct build.
	DoubleResolves int
	// Unresolved counts flows still open at the run's bound (always 0:
	// every terminal path — ok, shed, fail, reject — resolves the flow).
	Unresolved int
	// MembersBefore/After bracket the join; MovedLocales is how much of
	// the locale space the join rebalanced (consistent hashing keeps it
	// to the one split arc).
	MembersBefore, MembersAfter int
	MovedLocales                int
	// ForwardedStages / RemoteStages aggregate the three nodes' cluster
	// counters after the run.
	ForwardedStages, RemoteStages int64
}

// SplitBrainJoinScenario drives a cluster on the in-process fabric:
// two nodes serve a seeded stream of three-stage flows, the third joins
// mid-load, the ring rebalances, and the stream continues. It verifies
// done-exactly-once survives the rebalance: every flow resolves exactly
// once even when its stages routed by different rings.
func SplitBrainJoinScenario(cfg SplitBrainJoinConfig) (SplitBrainJoinReport, error) {
	r := scriptedRun{seed: cfg.Seed, flows: orDefault(cfg.Flows, 64), replicas: 2}
	r.wave = r.flows / 2
	var rep SplitBrainJoinReport
	out, err := r.play(func(live []*Node) {
		for _, n := range live {
			st := n.Stats()
			rep.ForwardedStages += st.ForwardedStages
			rep.RemoteStages += st.RemoteStages
		}
	})
	rep.Submitted, rep.Completed = r.flows, out.OK+out.Shed+out.Failed+out.Rejected
	rep.DoubleResolves, rep.Unresolved = out.Duplicates, out.Unresolved
	rep.MembersBefore, rep.MembersAfter, rep.MovedLocales = out.membersBefore, out.membersAfter, out.moved
	return rep, err
}

// orDefault is v, or def when v is not positive.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// scriptedRun is the one scripted cluster run behind KillNodeScenario
// and SplitBrainJoinScenario. It builds runNodes fabric nodes under a
// seeded fault injector, each with the kn tenant (registerKN), submits
// a seeded stream of flows from node 0 in two waves, and applies one
// membership event between them: node 1 crashes (and the run, once the
// second wave is in, waits until every survivor has evicted it), or
// node 2 joins. It then waits for every flow once, bounded by
// runBound, settles, and reads one serve.Census.
type scriptedRun struct {
	seed                  uint64
	flows, wave, replicas int  // wave flows are submitted before the event
	crash                 bool // the event: crash node 1, or else join node 2
}

// runOutcome is what a scripted run measured.
type runOutcome struct {
	serve.Tally
	membersBefore, membersAfter int           // node 0's member count around the event
	moved                       int           // locales the event moved on node 0's ring
	recovery                    time.Duration // crash to every survivor's eviction
}

// play runs the script; read sums the live nodes' counters while they
// are still up.
func (r scriptedRun) play(read func(live []*Node)) (out runOutcome, err error) {
	r.seed = cmp.Or(r.seed, 1)
	fabric := parcel.NewFabric()
	faults := parcel.NewFaults(r.seed)
	fabric.Inject(faults)
	nodes := make([]*Node, runNodes)
	pipes := make([]*Pipeline, runNodes)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{
			Transport: fabric.Node(parcel.NodeID(fmt.Sprintf("kn-n%d", i))),
			System:    litlx.Config{Locales: runLocales, WorkersPerLocale: 2, Seed: r.seed + uint64(i)},
			Serve:     serve.Config{Shards: runLocales, QueueDepth: 4096},
			Detect:    DetectConfig{Every: 10 * time.Millisecond, Misses: 2},
			Recover:   RecoverConfig{FlowTimeout: 250 * time.Millisecond, MaxAttempts: 4},
		}); err != nil {
			return out, err
		}
		defer nodes[i].Close()
		if pipes[i], err = registerKN(nodes[i], r.replicas); err != nil {
			return out, err
		}
	}
	// A crash starts from all the nodes; a join from all but the joiner.
	members := runNodes
	if !r.crash {
		members--
	}
	for _, n := range nodes[1:members] {
		if err := n.Join(nodes[0].Transport().Addr()); err != nil {
			return out, err
		}
	}
	if err := waitMembers(nodes[:members], members, 10*time.Second); err != nil {
		return out, err
	}
	ringBefore := nodes[0].Ring()
	out.membersBefore = len(nodes[0].Members())

	census := serve.NewCensus(r.flows)
	submit := func(from, to int) error {
		for i := from; i < to; i++ {
			req := serve.Request{Key: splitmix64(r.seed + uint64(i)), Payload: i, Deadline: time.Now().Add(runDeadline)}
			if err := pipes[0].SubmitFunc(req, func(res serve.Result) { census.Resolve(i, res) }); err != nil {
				return err
			}
		}
		return nil
	}
	if err := submit(0, r.wave); err != nil {
		return out, err
	}
	victim, live, crashAt := nodes[1].Self(), nodes, time.Now()
	if r.crash {
		faults.Crash(victim)
		live = []*Node{nodes[0], nodes[2]}
	} else if err := nodes[2].Join(nodes[0].Transport().Addr()); err != nil {
		return out, err
	}
	if err := submit(r.wave, r.flows); err != nil {
		return out, err
	}
	if r.crash {
		// Crash-to-convergence: every survivor has evicted the victim.
		if !waitFor(10*time.Second, func() bool {
			return !slices.ContainsFunc(live, func(n *Node) bool { return slices.Contains(n.Members(), victim) })
		}) {
			return out, fmt.Errorf("cluster: kill-node scenario: victim never evicted")
		}
		out.recovery = time.Since(crashAt)
	}
	census.Wait(runBound)
	// A double resolve races its first resolve by construction; settle
	// briefly so late duplicates are counted, not missed.
	time.Sleep(50 * time.Millisecond)
	out.Tally = census.Tally()
	out.membersAfter, out.moved = len(nodes[0].Members()), Moved(ringBefore, nodes[0].Ring())
	read(live)
	return out, nil
}

// registerKN installs the scripted run's tenant — one replicated
// global per locale, so the victim's arc always holds some and
// re-homing is exercised at every crash — and a three-stage pipeline
// whose later stages re-key from the value, so consecutive stages of
// one flow spread across the ring and every hop is a routing decision.
func registerKN(n *Node, replicas int) (*Pipeline, error) {
	work := func(_ *serve.Ctx, req serve.Request) (any, error) {
		// A little dwell keeps flows in flight when the event lands.
		time.Sleep(time.Millisecond)
		switch v := req.Payload.(type) {
		case int:
			return v + 1, nil
		default:
			return v, nil
		}
	}
	globals := make([]GlobalObject, runLocales)
	names := make([]string, runLocales)
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

// waitFor polls cond every millisecond until it holds, or reports
// false once timeout has passed.
func waitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// waitMembers polls until every node sees want members.
func waitMembers(nodes []*Node, want int, timeout time.Duration) error {
	if !waitFor(timeout, func() bool {
		return !slices.ContainsFunc(nodes, func(n *Node) bool { return len(n.Members()) != want })
	}) {
		return fmt.Errorf("cluster: membership did not converge to %d", want)
	}
	return nil
}

// splitmix64 is the scripted run's seeded key stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
