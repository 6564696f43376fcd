package mem

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func newTestSpace(locales int) *Space {
	return NewSpace(locales, RingCost{LocalLat: 10, HopLat: 40, ByteCost: 1})
}

func TestAllocAndHome(t *testing.T) {
	s := newTestSpace(4)
	id := s.Alloc(2, 128)
	if h := s.Home(id); h != 2 {
		t.Errorf("Home = %d, want 2", h)
	}
	if sz := s.Size(id); sz != 128 {
		t.Errorf("Size = %d, want 128", sz)
	}
}

func TestAllocInvalidLocalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newTestSpace(2).Alloc(5, 8)
}

func TestLocalVsRemoteRead(t *testing.T) {
	s := newTestSpace(4)
	id := s.Alloc(0, 64)
	local := s.ReadAccess(0, id, 8)
	remote := s.ReadAccess(2, id, 8)
	if local.Remote {
		t.Error("read at home marked remote")
	}
	if !remote.Remote || remote.Hops != 2 {
		t.Errorf("remote read = %+v, want remote with 2 hops", remote)
	}
	if remote.Cost <= local.Cost {
		t.Errorf("remote cost %d should exceed local %d", remote.Cost, local.Cost)
	}
}

func TestReplicaServesReads(t *testing.T) {
	s := newTestSpace(4)
	id := s.Alloc(0, 64)
	s.Replicate(id, 3)
	if !s.HasValidReplica(id, 3) {
		t.Fatal("replica not installed")
	}
	a := s.ReadAccess(3, id, 8)
	if a.Remote || a.Served != 3 {
		t.Errorf("read with valid replica = %+v, want local", a)
	}
}

func TestWriteInvalidatesReplicas(t *testing.T) {
	s := newTestSpace(4)
	id := s.Alloc(0, 64)
	s.Replicate(id, 1)
	s.Replicate(id, 2)
	s.WriteAccess(0, id, 8)
	if s.HasValidReplica(id, 1) || s.HasValidReplica(id, 2) {
		t.Error("write did not invalidate replicas")
	}
	if inv := s.Stats().Invalidations; inv != 2 {
		t.Errorf("Invalidations = %d, want 2", inv)
	}
	// Subsequent remote read must be remote again.
	if a := s.ReadAccess(1, id, 8); !a.Remote {
		t.Error("read after invalidation should be remote")
	}
}

func TestRemoteWriteServedAtHome(t *testing.T) {
	s := newTestSpace(4)
	id := s.Alloc(0, 64)
	a := s.WriteAccess(3, id, 8)
	if !a.Remote || a.Served != 0 {
		t.Errorf("remote write = %+v, want served at home 0", a)
	}
}

func TestMigrate(t *testing.T) {
	s := newTestSpace(4)
	id := s.Alloc(0, 256)
	s.Replicate(id, 2)
	cost := s.Migrate(id, 3)
	if cost <= 0 {
		t.Error("migration should have nonzero cost")
	}
	if s.Home(id) != 3 {
		t.Errorf("home after migrate = %d, want 3", s.Home(id))
	}
	if s.HasValidReplica(id, 2) {
		t.Error("migration should invalidate replicas")
	}
	if s.Migrate(id, 3) != 0 {
		t.Error("migrating to current home should be free")
	}
	a := s.ReadAccess(3, id, 8)
	if a.Remote {
		t.Error("read at new home should be local")
	}
}

func TestAutoReplication(t *testing.T) {
	s := newTestSpace(2)
	s.ReplicateAfter = 3
	id := s.Alloc(0, 64)
	for i := 0; i < 3; i++ {
		s.ReadAccess(1, id, 8)
	}
	if !s.HasValidReplica(id, 1) {
		t.Error("auto-replication did not trigger after threshold")
	}
	a := s.ReadAccess(1, id, 8)
	if a.Remote {
		t.Error("read after auto-replication should be local")
	}
}

func TestAccessCountsAndDecay(t *testing.T) {
	s := newTestSpace(3)
	id := s.Alloc(0, 8)
	s.ReadAccess(1, id, 8)
	s.ReadAccess(1, id, 8)
	s.WriteAccess(2, id, 8)
	reads, writes := s.AccessCounts(id)
	if reads[1] != 2 || writes[2] != 1 {
		t.Errorf("counts = %v / %v", reads, writes)
	}
	s.DecayCounts()
	reads, _ = s.AccessCounts(id)
	if reads[1] != 1 {
		t.Errorf("decayed reads = %v, want [0 1 0]", reads)
	}
}

func TestRemoteFraction(t *testing.T) {
	s := newTestSpace(2)
	id := s.Alloc(0, 8)
	s.ReadAccess(0, id, 8)
	s.ReadAccess(1, id, 8)
	if f := s.RemoteFraction(); f != 0.5 {
		t.Errorf("RemoteFraction = %v, want 0.5", f)
	}
}

func TestObjectsOrder(t *testing.T) {
	s := newTestSpace(2)
	a := s.Alloc(0, 8)
	b := s.Alloc(1, 8)
	ids := s.Objects()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Errorf("Objects = %v, want [%d %d]", ids, a, b)
	}
}

func TestConcurrentAccessSafety(t *testing.T) {
	s := newTestSpace(4)
	ids := make([]ObjID, 16)
	for i := range ids {
		ids[i] = s.Alloc(Locale(i%4), 64)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := stats.NewRNG(uint64(w + 1))
			for i := 0; i < 500; i++ {
				id := ids[r.Intn(len(ids))]
				loc := Locale(r.Intn(4))
				switch r.Intn(4) {
				case 0:
					s.WriteAccess(loc, id, 8)
				case 1:
					s.Replicate(id, loc)
				case 2:
					s.Migrate(id, loc)
				default:
					s.ReadAccess(loc, id, 8)
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Error("expected nonzero activity")
	}
}

// Property: a replica never serves a read unless its version matches,
// i.e. reads after a write are remote until re-replication.
func TestConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		s := newTestSpace(4)
		id := s.Alloc(Locale(r.Intn(4)), 64)
		// Interleave writes, replications and reads randomly; after
		// every write, an immediate read from a non-home locale that has
		// not re-replicated must be remote.
		for i := 0; i < 50; i++ {
			switch r.Intn(3) {
			case 0:
				s.Replicate(id, Locale(r.Intn(4)))
			case 1:
				s.WriteAccess(Locale(r.Intn(4)), id, 8)
				home := s.Home(id)
				for l := Locale(0); l < 4; l++ {
					if l != home && s.HasValidReplica(id, l) {
						return false // stale replica considered valid
					}
				}
			default:
				loc := Locale(r.Intn(4))
				a := s.ReadAccess(loc, id, 8)
				if !a.Remote && a.Served != loc {
					return false
				}
				if a.Remote && a.Served == loc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
