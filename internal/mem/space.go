// Package mem implements the HTVM memory model (Section 3.1): a global
// address space partitioned across locales (nodes), private per-LGT
// heaps, and per-SGT frame storage. Data objects in the global space can
// migrate and be replicated in the memory hierarchy "while copy
// consistency is preserved" — this package provides exactly that: a
// home-based directory with invalidate-on-write consistency, plus the
// per-locale access statistics the locality-adaptation controller
// (internal/adapt) uses to decide migration and replication.
//
// The package models placement and timing cost; payload bytes live in
// ordinary Go memory owned by the application.
package mem

import (
	"fmt"
	"sync"
)

// Locale identifies a node of the machine.
type Locale int

// ObjID names an object in the global space.
type ObjID int64

// AccessKind distinguishes reads from writes in access records.
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// CostModel prices accesses. Implementations exist for a flat SMP
// (UniformCost) and for distance-sensitive machines (RingCost); the c64
// simulator experiments convert cycles through this interface too.
type CostModel interface {
	// Local prices an access of size bytes served on the issuing locale.
	Local(bytes int) int64
	// Remote prices an access of size bytes served hops away.
	Remote(hops, bytes int) int64
}

// UniformCost prices every access the same regardless of distance.
type UniformCost struct{ Cost int64 }

// Local implements CostModel.
func (u UniformCost) Local(bytes int) int64 { return u.Cost }

// Remote implements CostModel.
func (u UniformCost) Remote(hops, bytes int) int64 { return u.Cost }

// RingCost prices remote accesses by ring distance with a per-byte term,
// matching the c64 network model.
type RingCost struct {
	LocalLat int64 // local service
	HopLat   int64 // per hop, round trip already included
	ByteCost int64 // per 8 bytes
}

// Local implements CostModel.
func (r RingCost) Local(bytes int) int64 { return r.LocalLat }

// Remote implements CostModel.
func (r RingCost) Remote(hops, bytes int) int64 {
	return r.LocalLat + 2*int64(hops)*r.HopLat + int64((bytes+7)/8)*r.ByteCost
}

// Object is one entry in the global-space directory.
type object struct {
	id      ObjID
	home    Locale
	size    int
	version uint64
	// replicas maps locale -> version of the copy held there. A replica
	// is valid iff its version equals the object version.
	replicas map[Locale]uint64

	reads  []int64 // per-locale read counts since last Decay
	writes []int64
}

// AccessInfo describes one completed access, for the monitor and for
// latency accounting by the caller (e.g. Stall on the simulator).
type AccessInfo struct {
	Obj    ObjID
	Kind   AccessKind
	From   Locale
	Served Locale // locale that satisfied the access
	Remote bool
	Hops   int
	Bytes  int
	Cost   int64
}

// Space is the global address space directory. All methods are safe for
// concurrent use.
type Space struct {
	mu      sync.Mutex
	locales int
	cost    CostModel
	objects map[ObjID]*object
	next    ObjID

	// ReplicateAfter, when > 0, auto-replicates an object at a locale
	// after that many remote reads from it since the last invalidation.
	ReplicateAfter int64
	remoteReads    map[ObjID]map[Locale]int64

	// homeScratch is MajorityHome's count buffer for machines past its
	// stack buffer (32 locales). Guarded by mu; touched entries are
	// re-zeroed after each use so the read path never allocates.
	homeScratch []int32

	stats SpaceStats
}

// SpaceStats aggregates space-wide counters.
type SpaceStats struct {
	Reads         int64
	Writes        int64
	RemoteReads   int64
	RemoteWrites  int64
	Replications  int64
	Migrations    int64
	Invalidations int64
	TotalCost     int64
}

// NewSpace creates a directory over the given number of locales with the
// given cost model.
func NewSpace(locales int, cost CostModel) *Space {
	if locales <= 0 {
		panic("mem: locales must be positive")
	}
	if cost == nil {
		cost = UniformCost{Cost: 1}
	}
	return &Space{
		locales:     locales,
		cost:        cost,
		objects:     make(map[ObjID]*object),
		remoteReads: make(map[ObjID]map[Locale]int64),
	}
}

// Locales returns the number of locales the space spans.
func (s *Space) Locales() int { return s.locales }

// hops returns ring distance between locales.
func (s *Space) hops(a, b Locale) int {
	if a == b {
		return 0
	}
	d := int(a - b)
	if d < 0 {
		d = -d
	}
	if w := s.locales - d; w < d {
		d = w
	}
	return d
}

// Alloc creates an object of size bytes homed at the given locale.
func (s *Space) Alloc(home Locale, size int) ObjID {
	if home < 0 || int(home) >= s.locales {
		panic(fmt.Sprintf("mem: alloc at invalid locale %d", home))
	}
	if size <= 0 {
		size = 8
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := s.next
	s.objects[id] = &object{
		id: id, home: home, size: size,
		replicas: make(map[Locale]uint64),
		reads:    make([]int64, s.locales),
		writes:   make([]int64, s.locales),
	}
	return id
}

func (s *Space) get(id ObjID) *object {
	o, ok := s.objects[id]
	if !ok {
		panic(fmt.Sprintf("mem: unknown object %d", id))
	}
	return o
}

// Home returns the object's current home locale.
func (s *Space) Home(id ObjID) Locale {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(id).home
}

// Size returns the object's size in bytes.
func (s *Space) Size(id ObjID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(id).size
}

// MajorityHome returns the locale where most of the given objects are
// homed — the serving data plane's routing signal: a request declaring
// this working set runs cheapest where most of its data already lives.
// Ties break toward the locale that reached the winning count first in
// slice order, so a two-object set deterministically follows its first
// object. All ids are resolved under one lock acquisition, and the
// count is allocation-free for machines up to 32 locales — this sits on
// the admission hot path of every working-set request, so the critical
// section must stay a few array ops. ok is false when ids is empty.
func (s *Space) MajorityHome(ids []ObjID) (home Locale, ok bool) {
	if len(ids) == 0 {
		return 0, false
	}
	var buf [32]int32
	counts := buf[:]
	s.mu.Lock()
	defer s.mu.Unlock()
	big := s.locales > len(buf)
	if big {
		// Wide machines count in a lock-guarded scratch slice instead of
		// allocating per call; only the touched entries are cleared after.
		if cap(s.homeScratch) < s.locales {
			s.homeScratch = make([]int32, s.locales)
		}
		counts = s.homeScratch[:s.locales]
	}
	best, bestN := Locale(0), int32(0)
	for _, id := range ids {
		h := s.get(id).home
		counts[h]++
		if counts[h] > bestN {
			best, bestN = h, counts[h]
		}
	}
	if big {
		for _, id := range ids {
			counts[s.get(id).home] = 0
		}
	}
	return best, true
}

// AllValidAt reports whether every id has a valid copy (or its home) at
// loc, under one lock acquisition — the batch form of HasValidReplica
// for read paths that must not pay a lock round trip per object, like
// the rebalancer's data-residency gate. Allocation-free. True for an
// empty set.
func (s *Space) AllValidAt(ids []ObjID, loc Locale) bool {
	if len(ids) == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		o := s.get(id)
		if o.home == loc {
			continue
		}
		if v, ok := o.replicas[loc]; !ok || v != o.version {
			return false
		}
	}
	return true
}

// HasValidReplica reports whether loc holds a current copy of id
// (including the home itself).
func (s *Space) HasValidReplica(id ObjID, loc Locale) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id)
	if o.home == loc {
		return true
	}
	v, ok := o.replicas[loc]
	return ok && v == o.version
}

// ReadAccess records a read of bytes from the object issued at from,
// serving it from the nearest valid copy, and returns the access
// record. bytes <= 0 reads the whole object.
func (s *Space) ReadAccess(from Locale, id ObjID, bytes int) AccessInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id)
	o.reads[from]++
	s.stats.Reads++
	if bytes <= 0 {
		bytes = o.size
	}

	served := o.home
	if o.home != from {
		if v, ok := o.replicas[from]; ok && v == o.version {
			served = from
		}
	}
	info := AccessInfo{Obj: id, Kind: Read, From: from, Served: served, Bytes: bytes}
	if served == from {
		info.Cost = s.cost.Local(bytes)
	} else {
		info.Remote = true
		info.Hops = s.hops(from, served)
		info.Cost = s.cost.Remote(info.Hops, bytes)
		s.stats.RemoteReads++
		s.noteRemoteReadLocked(o, from)
	}
	s.stats.TotalCost += info.Cost
	return info
}

// noteRemoteReadLocked counts remote reads and auto-replicates when the
// configured threshold is crossed.
func (s *Space) noteRemoteReadLocked(o *object, from Locale) {
	if s.ReplicateAfter <= 0 {
		return
	}
	m := s.remoteReads[o.id]
	if m == nil {
		m = make(map[Locale]int64)
		s.remoteReads[o.id] = m
	}
	m[from]++
	if m[from] >= s.ReplicateAfter {
		m[from] = 0
		s.replicateLocked(o, from)
	}
}

// WriteAccess records a write issued at from. Writes are serviced at the
// home (home-based protocol); all replicas are invalidated. bytes <= 0
// writes the whole object.
func (s *Space) WriteAccess(from Locale, id ObjID, bytes int) AccessInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id)
	o.writes[from]++
	s.stats.Writes++
	if bytes <= 0 {
		bytes = o.size
	}
	info := AccessInfo{Obj: id, Kind: Write, From: from, Served: o.home, Bytes: bytes}
	if o.home == from {
		info.Cost = s.cost.Local(bytes)
	} else {
		info.Remote = true
		info.Hops = s.hops(from, o.home)
		info.Cost = s.cost.Remote(info.Hops, bytes)
		s.stats.RemoteWrites++
	}
	o.version++
	if n := len(o.replicas); n > 0 {
		s.stats.Invalidations += int64(n)
		for k := range o.replicas {
			delete(o.replicas, k)
		}
	}
	delete(s.remoteReads, id)
	s.stats.TotalCost += info.Cost
	return info
}

// Replicate installs a current copy of id at loc and returns the
// transfer cost. Replicating at the home is a no-op.
func (s *Space) Replicate(id ObjID, loc Locale) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicateLocked(s.get(id), loc)
}

func (s *Space) replicateLocked(o *object, loc Locale) int64 {
	if loc == o.home {
		return 0
	}
	o.replicas[loc] = o.version
	s.stats.Replications++
	cost := s.cost.Remote(s.hops(o.home, loc), o.size)
	s.stats.TotalCost += cost
	return cost
}

// Migrate moves the object's home to loc, invalidating replicas, and
// returns the transfer cost. Migrating to the current home is free.
func (s *Space) Migrate(id ObjID, loc Locale) int64 {
	if loc < 0 || int(loc) >= s.locales {
		panic(fmt.Sprintf("mem: migrate to invalid locale %d", loc))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id)
	if o.home == loc {
		return 0
	}
	cost := s.cost.Remote(s.hops(o.home, loc), o.size)
	o.home = loc
	for k := range o.replicas {
		delete(o.replicas, k)
	}
	delete(s.remoteReads, id)
	s.stats.Migrations++
	s.stats.TotalCost += cost
	return cost
}

// AccessCounts returns per-locale read and write counts for the object
// since the last DecayCounts. The slices are copies.
func (s *Space) AccessCounts(id ObjID) (reads, writes []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.get(id)
	return append([]int64(nil), o.reads...), append([]int64(nil), o.writes...)
}

// DecayCounts halves all access counters, aging the history the locality
// manager bases decisions on.
func (s *Space) DecayCounts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.objects {
		for i := range o.reads {
			o.reads[i] /= 2
			o.writes[i] /= 2
		}
	}
}

// Objects returns the ids of all allocated objects, in allocation order.
func (s *Space) Objects() []ObjID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]ObjID, 0, len(s.objects))
	for id := ObjID(1); id <= s.next; id++ {
		if _, ok := s.objects[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Stats returns a copy of the space-wide counters.
func (s *Space) Stats() SpaceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RemoteFraction returns the fraction of all accesses that were remote.
func (s *Space) RemoteFraction() float64 {
	st := s.Stats()
	total := st.Reads + st.Writes
	if total == 0 {
		return 0
	}
	return float64(st.RemoteReads+st.RemoteWrites) / float64(total)
}
