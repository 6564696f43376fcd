package adapt

import (
	"testing"

	"repro/internal/mem"
)

// Edge tests for LocalityManager.Analyze: the thresholds and
// tie-breaks the serving data plane's locality loop steers by.

// TestLocalityMigrateVsReplicateBoundary probes the ReadMostlyRatio
// knife-edge: reads:writes exactly at the ratio replicates, one write
// more migrates.
func TestLocalityMigrateVsReplicateBoundary(t *testing.T) {
	run := func(reads, writes int) []LocalityAction {
		space := mem.NewSpace(2, nil)
		lm := NewLocalityManager(space)
		obj := space.Alloc(0, 64)
		for i := 0; i < reads; i++ {
			space.ReadAccess(1, obj, 0)
		}
		for i := 0; i < writes; i++ {
			space.WriteAccess(1, obj, 0)
		}
		return lm.Analyze()
	}
	// 16 reads : 4 writes = exactly ReadMostlyRatio (4): read-mostly,
	// so the remote reader gets a replica.
	at := run(16, 4)
	if len(at) != 1 || at[0].Kind != "replicate" || at[0].To != 1 {
		t.Errorf("ratio exactly at threshold: actions %v, want one replicate to locale 1", at)
	}
	// 16 reads : 5 writes < ratio: write activity dominates enough that
	// the object follows its (sole) accessor instead.
	below := run(16, 5)
	if len(below) != 1 || below[0].Kind != "migrate" || below[0].To != 1 {
		t.Errorf("ratio below threshold: actions %v, want one migrate to locale 1", below)
	}
	// Zero writes is read-mostly by definition, whatever the ratio says.
	zw := run(9, 0)
	if len(zw) != 1 || zw[0].Kind != "replicate" {
		t.Errorf("zero-write object: actions %v, want replicate", zw)
	}
}

// TestLocalityZeroAndSubThresholdAccess: untouched objects and objects
// under MinAccesses must produce no actions — the loop must not churn
// data nobody is using.
func TestLocalityZeroAndSubThresholdAccess(t *testing.T) {
	space := mem.NewSpace(4, nil)
	lm := NewLocalityManager(space)
	cold := space.Alloc(0, 64)
	warmish := space.Alloc(0, 64)
	for i := int64(0); i < lm.MinAccesses-1; i++ {
		space.ReadAccess(2, warmish, 0)
	}
	if acts := lm.Analyze(); len(acts) != 0 {
		t.Errorf("zero/sub-threshold objects produced actions: %v", acts)
	}
	// One more access tips warmish over MinAccesses; cold stays quiet.
	space.ReadAccess(2, warmish, 0)
	acts := lm.Analyze()
	if len(acts) != 1 || acts[0].Obj != warmish {
		t.Errorf("actions %v, want exactly one for the object at MinAccesses", acts)
	}
	_ = cold
}

// TestLocalitySingleLocaleNoop: with one locale there is nowhere to
// move anything — no actions regardless of traffic.
func TestLocalitySingleLocaleNoop(t *testing.T) {
	space := mem.NewSpace(1, nil)
	lm := NewLocalityManager(space)
	obj := space.Alloc(0, 64)
	for i := 0; i < 64; i++ {
		space.ReadAccess(0, obj, 0)
		space.WriteAccess(0, obj, 0)
	}
	if acts := lm.Analyze(); len(acts) != 0 {
		t.Errorf("single-locale space produced actions: %v", acts)
	}
}

// TestLocalityMigrateTieBreak: when two locales tie for the write-heavy
// top spot, the lowest locale wins deterministically (first strict
// maximum in locale order); a tie that includes the home stays put only
// if the home is that lowest locale.
func TestLocalityMigrateTieBreak(t *testing.T) {
	space := mem.NewSpace(4, nil)
	lm := NewLocalityManager(space)
	obj := space.Alloc(3, 64)
	for i := 0; i < 8; i++ {
		space.WriteAccess(1, obj, 0)
		space.WriteAccess(2, obj, 0)
	}
	acts := lm.Analyze()
	if len(acts) != 1 || acts[0].Kind != "migrate" || acts[0].To != 1 {
		t.Errorf("tied writers: actions %v, want migrate to the lowest tied locale 1", acts)
	}
	// Same tie, but the home is the lowest tied locale: staying put wins.
	space2 := mem.NewSpace(4, nil)
	lm2 := NewLocalityManager(space2)
	obj2 := space2.Alloc(1, 64)
	for i := 0; i < 8; i++ {
		space2.WriteAccess(1, obj2, 0)
		space2.WriteAccess(2, obj2, 0)
	}
	if acts := lm2.Analyze(); len(acts) != 0 {
		t.Errorf("home among tied writers: actions %v, want none", acts)
	}
}

// TestLocalityDisableReplicationForcesMigrate: the migrate-only
// ablation must turn a textbook replication candidate into a migration
// toward its hottest reader.
func TestLocalityDisableReplicationForcesMigrate(t *testing.T) {
	space := mem.NewSpace(4, nil)
	lm := NewLocalityManager(space)
	lm.DisableReplication = true
	obj := space.Alloc(0, 64)
	for i := 0; i < 32; i++ {
		space.ReadAccess(2, obj, 0)
	}
	space.ReadAccess(1, obj, 0)
	acts := lm.Analyze()
	if len(acts) != 1 || acts[0].Kind != "migrate" || acts[0].To != 2 {
		t.Errorf("migrate-only ablation: actions %v, want migrate to hottest reader 2", acts)
	}
}

// TestLocalityReplicateSkipsExistingReplicas: Analyze must not
// recommend replicas that already exist (idempotence — the loop runs
// forever and must converge, not spin).
func TestLocalityReplicateSkipsExistingReplicas(t *testing.T) {
	space := mem.NewSpace(4, nil)
	lm := NewLocalityManager(space)
	obj := space.Alloc(0, 64)
	for i := 0; i < 16; i++ {
		space.ReadAccess(1, obj, 0)
		space.ReadAccess(2, obj, 0)
	}
	first := lm.Analyze()
	if len(first) != 2 {
		t.Fatalf("two remote readers: actions %v, want two replicates", first)
	}
	for _, a := range first {
		space.Replicate(a.Obj, a.To)
	}
	if again := lm.Analyze(); len(again) != 0 {
		t.Errorf("replicas installed, Analyze still wants: %v", again)
	}
}
