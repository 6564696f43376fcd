package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/parcel"
	"repro/internal/serve"
)

// This file is cross-node percolation: the serve layer's residency
// subsystem models what a cold code or data miss costs inside one
// process; here the transfer is real. A node executing a stage for a
// tenant it has never served pulls the tenant's code image from the
// flow's origin, and each global object a stage declares from the owner
// of the object's home locale — actual bytes over the transport,
// single-flight per (node, image/object), counted in Stats
// (CodeFetches, ObjectFetches, PercolateBytes). That fetch is a cold
// image's one price: the serve tenant under a cluster tenant starts
// with its image resident, so no shard also spins the modeled transfer.

// GlobalObject declares one cluster-wide data object of a tenant: a
// named block homed at one global locale. Stages name the globals they
// read through their StageRoute; the executing node fetches each one it
// does not yet hold from the home locale's owner.
type GlobalObject struct {
	Name string
	// Size is the object size in bytes (the fetch payload volume).
	Size int
	// Home is the object's home in the global locale space;
	// serve.AutoHome (-1) places objects round-robin.
	Home int
}

// TenantConfig registers one traffic source on a cluster node. Register
// the same tenants (and pipelines) on every node — stage parcels name
// them, exactly like parcel handlers.
type TenantConfig struct {
	// Serve is the node-local registration: handler, middleware, code
	// size, local data objects. Its Warm is implied: the code image is
	// priced by the transport fetch, not by serve's model.
	Serve serve.TenantConfig
	// Globals declares the tenant's cluster-wide objects.
	Globals []GlobalObject
	// Replicas is how many nodes hold each global — the primary (the
	// owner of its home locale) plus Replicas-1 ring successors that
	// pre-warm a copy, so a primary's death promotes a replica instead
	// of re-fetching. Default 1 (no replication).
	Replicas int
}

// Tenant is the cluster handle for one registered traffic source.
type Tenant struct {
	n        *Node
	st       *serve.Tenant
	name     string
	hash     uint64
	codeSize int
	replicas int
	globals  map[string]*global

	// resident tracks what this node already holds, single-flight: the
	// first stage needing an image or object fetches it, concurrent
	// stages wait on the same entry, later ones find it resident.
	resMu    sync.Mutex
	resident map[string]*fetchState
}

type fetchState struct {
	done chan struct{}
	err  error
}

// global is one declared GlobalObject as this node holds it: whether
// the node holds its bytes is its key's entry in the tenant's resident
// map, the one record of where a global lives.
type global struct {
	GlobalObject
	// key is the object's residency key, "obj/<name>".
	key string
}

// RegisterTenant installs a tenant on this node and returns its cluster
// handle.
func (n *Node) RegisterTenant(cfg TenantConfig) (*Tenant, error) {
	globals := make(map[string]*global, len(cfg.Globals))
	auto := 0 // round-robin counter over AutoHome globals only
	for i, g := range cfg.Globals {
		if g.Name == "" {
			return nil, fmt.Errorf("cluster: tenant %q global %d has no name", cfg.Serve.Name, i)
		}
		if _, dup := globals[g.Name]; dup {
			return nil, fmt.Errorf("cluster: tenant %q declares global %q twice", cfg.Serve.Name, g.Name)
		}
		if g.Home == serve.AutoHome {
			// Round-robin over the AutoHome entries themselves — counting
			// explicitly-homed globals into the stride would skip locales
			// and pile AutoHome objects onto the same ones.
			g.Home = auto % n.locales
			auto++
		}
		if g.Home < 0 || g.Home >= n.locales {
			return nil, fmt.Errorf("cluster: tenant %q global %q homed at locale %d, have %d locales",
				cfg.Serve.Name, g.Name, g.Home, n.locales)
		}
		globals[g.Name] = &global{GlobalObject: g, key: "obj/" + g.Name}
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	local := cfg.Serve
	local.Warm = true
	st, err := n.srv.RegisterTenant(local)
	if err != nil {
		return nil, err
	}
	t := &Tenant{
		n:        n,
		st:       st,
		name:     cfg.Serve.Name,
		hash:     fnv64(cfg.Serve.Name),
		codeSize: cfg.Serve.CodeSize,
		replicas: cfg.Replicas,
		globals:  globals,
		resident: make(map[string]*fetchState),
	}
	n.tenantsMu.Lock()
	n.tenants[t.name] = t
	n.tenantsMu.Unlock()
	t.syncReplicas()
	return t, nil
}

// Name returns the tenant's registered name.
func (t *Tenant) Name() string { return t.name }

// tenantList snapshots the registered tenants.
func (n *Node) tenantList() []*Tenant {
	n.tenantsMu.RLock()
	defer n.tenantsMu.RUnlock()
	return slices.Collect(maps.Values(n.tenants))
}

// tenant looks a tenant up by name.
func (n *Node) tenant(name string) *Tenant {
	n.tenantsMu.RLock()
	defer n.tenantsMu.RUnlock()
	return n.tenants[name]
}

// ensureResident percolates what a stage execution needs onto this
// node: the tenant's code image (from the flow's origin — it admitted
// the flow, so it has the tenant) and each named global (from the owner
// of its home locale). Fetches are single-flight; a failed fetch clears
// its entry, the stage runs anyway, and the next stage retries it.
func (t *Tenant) ensureResident(origin parcel.NodeID, globals []string) {
	n := t.n
	if t.codeSize > 0 && origin != n.self {
		_ = t.fetchOnce("code", &n.codeFetches, func() (int, error) {
			return t.fetch(origin, "")
		})
	}
	for _, name := range globals {
		g, ok := t.globals[name]
		if !ok {
			continue
		}
		owner, _ := n.Ring().Owner(g.Home)
		if owner == n.self {
			// The home is ours: resident by definition, no wire.
			_ = t.fetchOnce(g.key, nil, nil)
			continue
		}
		_ = t.fetchOnce(g.key, &n.objectFetches, func() (int, error) {
			return t.fetch(owner, name)
		})
	}
}

// warm reports, without blocking, whether ensureResident(origin,
// globals) would return at once: the code image (when it would come
// from another node) and every named global have a successful fetch
// entry — the only kind fetchOnce never deletes.
func (t *Tenant) warm(origin parcel.NodeID, globals []string) bool {
	t.resMu.Lock()
	defer t.resMu.Unlock()
	if t.codeSize > 0 && origin != t.n.self && !t.heldLocked("code") {
		return false
	}
	for _, name := range globals {
		if g, ok := t.globals[name]; ok && !t.heldLocked(g.key) {
			return false
		}
	}
	return true
}

// heldLocked reports whether key's fetch entry has already succeeded —
// the node holds those bytes and needs no fetch. The caller holds resMu.
func (t *Tenant) heldLocked(key string) bool {
	fs, ok := t.resident[key]
	if !ok {
		return false
	}
	select {
	case <-fs.done:
		return fs.err == nil
	default:
		return false
	}
}

// fetch makes one percolation transfer from src — the named global
// object, or the tenant's code image when object is empty — and returns
// its size.
func (t *Tenant) fetch(src parcel.NodeID, object string) (int, error) {
	reply, err := t.n.t.Call(src, "cluster.fetch", encode(fetchMsg{Tenant: t.name, Object: object}))
	return len(reply), err
}

// fetchOnce runs fetch at most once per key: the first caller transfers
// while concurrent callers wait; a failed fetch clears the entry so a
// later stage retries. A nil fetch marks the key resident outright.
func (t *Tenant) fetchOnce(key string, counter *atomic.Int64, fetch func() (int, error)) error {
	t.resMu.Lock()
	fs, ok := t.resident[key]
	if ok {
		t.resMu.Unlock()
		<-fs.done
		return fs.err
	}
	fs = &fetchState{done: make(chan struct{})}
	t.resident[key] = fs
	t.resMu.Unlock()
	if fetch != nil {
		nbytes, err := fetch()
		fs.err = err
		if err == nil {
			counter.Add(1)
			t.n.percolateBytes.Add(int64(nbytes))
		}
	}
	close(fs.done)
	if fs.err != nil {
		t.resMu.Lock()
		delete(t.resident, key)
		t.resMu.Unlock()
	}
	return fs.err
}

// syncReplicas re-derives this node's replica duties from the current
// ring: for every global whose replica set (the home's owner plus the
// next Replicas-1 ring successors) includes this node, the bytes are
// pre-warmed from the primary — so the primary's death later promotes
// the held copy instead of paying a fetch. Runs on every membership
// change; already-resident entries make it idempotent and cheap.
func (t *Tenant) syncReplicas() {
	n := t.n
	if t.replicas < 2 {
		return
	}
	ring := n.Ring()
	for name, g := range t.globals {
		owners := ring.OwnersFor(g.Home, t.replicas)
		if slices.Index(owners, n.self) <= 0 {
			continue // primary (resident by definition) or not in the set
		}
		_ = t.fetchOnce(g.key, &n.objectFetches, func() (int, error) {
			return t.fetch(owners[0], name)
		})
	}
}

// replicasHeld reports whether this node holds every global the current
// ring makes it a replica (not the primary) of: syncReplicas has
// nothing left to pre-warm.
func (t *Tenant) replicasHeld() bool {
	ring := t.n.Ring()
	t.resMu.Lock()
	defer t.resMu.Unlock()
	for _, g := range t.globals {
		if slices.Index(ring.OwnersFor(g.Home, t.replicas), t.n.self) > 0 && !t.heldLocked(g.key) {
			return false
		}
	}
	return true
}

// syncReplicas re-syncs every tenant's replica placement (membership
// changes call this off the protocol goroutine).
func (n *Node) syncReplicas() {
	if n.closed.Load() {
		return
	}
	for _, t := range n.tenantList() {
		t.syncReplicas()
	}
}

// recoverGlobals runs at a member's death: every global whose home
// locale the dead node owned and this node now owns is taken over,
// counted once here as re-homed. One this node already held (a
// pre-warmed replica, or bytes an earlier stage fetched) is promoted
// and needs no fetch; the rest are fetched from any surviving member
// (all members register the same tenants, so any of them serves it).
func (t *Tenant) recoverGlobals(dead parcel.NodeID, oldRing, newRing *Ring) {
	n := t.n
	for name, g := range t.globals {
		was, _ := oldRing.Owner(g.Home)
		now, _ := newRing.Owner(g.Home)
		if was != dead || now != n.self {
			continue
		}
		n.rehomedObjects.Add(1)
		t.resMu.Lock()
		held := t.heldLocked(g.key)
		t.resMu.Unlock()
		if held {
			n.promotedObjects.Add(1)
			continue
		}
		src := t.anySurvivor(dead)
		if src == "" {
			// No peer left to fetch from: resident by fiat (we are the
			// whole cluster now).
			_ = t.fetchOnce(g.key, nil, nil)
			continue
		}
		_ = t.fetchOnce(g.key, &n.objectFetches, func() (int, error) {
			return t.fetch(src, name)
		})
	}
}

// anySurvivor picks a member other than self and the dead node.
func (t *Tenant) anySurvivor(dead parcel.NodeID) parcel.NodeID {
	for _, id := range t.n.Members() {
		if id != t.n.self && id != dead {
			return id
		}
	}
	return ""
}

// handleFetch serves a percolating peer one transfer: the tenant's
// code image (Object empty) or one global object. The content is synthetic (the data plane is
// modeled); the bytes and their wire cost are real.
func (n *Node) handleFetch(fm fetchMsg) ([]byte, error) {
	t := n.tenant(fm.Tenant)
	if t == nil {
		return nil, fmt.Errorf("cluster: node %s has no tenant %q", n.self, fm.Tenant)
	}
	if fm.Object == "" {
		return make([]byte, t.codeSize), nil
	}
	g, ok := t.globals[fm.Object]
	if !ok {
		return nil, fmt.Errorf("cluster: tenant %q has no global %q", fm.Tenant, fm.Object)
	}
	return make([]byte, g.Size), nil
}
