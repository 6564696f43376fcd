package exp

import (
	"fmt"

	"repro/internal/cluster"
)

func init() {
	register("V6", ExpFailureRecovery)
}

// ExpFailureRecovery measures what a node death costs as a function of
// the tenant's replication factor: the seeded KillNodeScenario runs a
// three-node cluster under load, crashes one node mid-stream, and the
// table reports how fast the survivors converge, how many requests the
// crash lost (shed/failed out of the submitted stream), and how many of
// the dead arc's globals re-homed (each counted once), split into those
// promoted for free from a replica the new primary held and those
// rebuilt by a fetch (rebuilt = rehomed − promoted). The fault schedule
// and key stream are seeded, so a row differs across replication
// factors only by what replication buys.
func ExpFailureRecovery(scale int) *Result {
	res := newResult("V6", "EXP-V6: node-death recovery time and requests lost vs replication factor",
		"replicas", "flows", "ok", "lost", "unresolved", "double_resolves",
		"recovery_ms", "max_resolve_ms", "recovered_flows", "rehomed", "promoted", "rebuilt", "fetches")

	flows := 96 * scale
	for replicas := 1; replicas <= 3; replicas++ {
		rep, err := cluster.KillNodeScenario(cluster.KillNodeConfig{
			Seed:     42,
			Flows:    flows,
			Replicas: replicas,
		})
		if err != nil {
			panic(err)
		}
		lost := rep.Shed + rep.Failed + rep.Rejected
		res.Table.AddRow(replicas, rep.Submitted, rep.OK, lost, rep.Unresolved, rep.DoubleResolves,
			rep.RecoveryMillis, rep.MaxResolveMillis, rep.RecoveredFlows,
			rep.RehomedObjects, rep.RehomePromotions, rep.RehomedObjects-rep.RehomePromotions, rep.ObjFetches)
		res.Metrics[fmt.Sprintf("recovery_ms_r%d", replicas)] = float64(rep.RecoveryMillis)
		res.Metrics[fmt.Sprintf("lost_r%d", replicas)] = float64(lost)
		res.Metrics[fmt.Sprintf("unresolved_r%d", replicas)] = float64(rep.Unresolved)
		res.Metrics[fmt.Sprintf("double_resolves_r%d", replicas)] = float64(rep.DoubleResolves)
		res.Metrics[fmt.Sprintf("promotions_r%d", replicas)] = float64(rep.RehomePromotions)
	}
	return res
}
