package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/serve/contc"
	"repro/internal/spinwork"
	"repro/internal/trace"
)

// This file is the residency subsystem: one mechanism deciding what —
// code images and data working sets alike — is present at the site of
// computation, and what a cold miss costs. It subsumes the code-only
// warm-up the serve layer started with (Section 3.2 percolation of
// program instruction blocks) and extends it to data blocks: tenants
// register objects in the shared mem.Space, batch SGTs stage a batch's
// declared working set into their locale ahead of execution, and both
// kinds of transfer are priced by one closed form, transferCycles.

// AutoHome requests round-robin placement for a tenant data object: the
// i-th object with AutoHome lands at locale i % locales.
const AutoHome = -1

// DataObject declares one tenant data object for the shared space.
type DataObject struct {
	// Size is the object size in bytes (default 8).
	Size int
	// Home is the object's initial home locale; AutoHome (-1) places
	// objects round-robin across the system's locales.
	Home int
}

// TenantConfig registers one traffic source.
type TenantConfig struct {
	// Name identifies the tenant; submissions name it.
	Name string
	// Handler executes the tenant's requests.
	Handler Handler
	// Middleware wraps Handler, outermost first, inside any server-wide
	// middleware. The chain composes once here, never on the hot path.
	Middleware []Middleware
	// CodeSize is the tenant's handler code image in bytes. Non-zero
	// sizes engage the percolation model: the first job on each shard
	// pays the modeled code-transfer cost unless the image was warmed.
	CodeSize int
	// Warm percolates the code image at registration time (the paper's
	// percolation applied to serving): first requests run warm on every
	// shard.
	Warm bool
	// Objects declares the tenant's data objects, allocated in the
	// shared mem.Space at registration. Requests reference the
	// resulting ids (Tenant.Objects) in their WorkingSet / WriteSet.
	Objects []DataObject
	// PercolateData replicates every declared object to every locale at
	// registration — data percolation ahead of traffic, the whole-space
	// analogue of Warm. Without it, objects are served from their homes
	// until per-batch staging (Config.Data.Stage) or the locality loop
	// moves them.
	PercolateData bool
	// Specialize, with Config.Compile enabled, returns a handler
	// specialized for one hot key. The continuous-compilation controller
	// calls it off the hot path when the tenant's key sketch promotes a
	// key, composes the result with the tenant and server middleware, and
	// installs it in the tenant's fast-path table; dispatch then runs it
	// for that key until demotion. Nil tenants still get fast-path slots
	// — they cache the composed general handler, saving nothing but
	// proving out the plumbing.
	Specialize func(key uint64) Handler
}

// transferCycles prices moving a code image or data block of size
// bytes to the site of computation, in simulator cycles: a fixed
// split-transaction cost of 185 cycles plus the copy at 16 bytes per
// cycle. It is the closed form of the two-node Cyclops-64 percolation
// models (percolate.ModelCode and ModelData, which agree for every
// size); a test pins it to them.
func transferCycles(size int) int64 { return 185 + (int64(max(size, 1))+7)/16 }

// spinUnitCycles converts modeled cycles to native spin units: a
// transfer of c cycles costs spin(c/spinUnitCycles) on the serving SGT,
// keeping the modeled and native time scales roughly commensurate
// without depending on the wall clock.
const spinUnitCycles = 16

// TransferSpinUnits returns the native spin-unit charge for a modeled
// transfer of c cycles — exactly what a cold first request (or an
// unstaged remote working-set access) pays.
func TransferSpinUnits(c int64) int64 {
	if c <= 0 {
		return 0
	}
	return max(c/spinUnitCycles, 1)
}

// transferUnits is the spin charge for moving size bytes: a cold code
// fetch, a demand fetch on the critical path, or a staging replication
// ahead of it.
func transferUnits(size int) int64 { return TransferSpinUnits(transferCycles(size)) }

// spinWork burns the shared deterministic CPU-work unit.
func spinWork(units int64) { spinwork.Work(units) }

// stageBatch percolates the union of a batch's declared working sets
// into the shard's locale before any job executes: each object missing
// a valid local copy is replicated once per batch (not once per job),
// the transfer charged at the modeled cost on the batch SGT — off every
// job's individual critical path, amortized exactly the way the batch
// amortizes SGT spawns. No-op unless Config.Data.Stage is set.
func (s *Server) stageBatch(sh *shard, jobs []*Job) {
	if !s.cfg.Data.Stage {
		return
	}
	var seen map[mem.ObjID]struct{}
	for _, j := range jobs {
		for _, id := range j.req.WorkingSet {
			if _, dup := seen[id]; dup {
				continue
			}
			if seen == nil {
				seen = make(map[mem.ObjID]struct{}, 8)
			}
			seen[id] = struct{}{}
			if s.space.HasValidReplica(id, sh.locale) {
				continue
			}
			s.space.Replicate(id, sh.locale)
			s.datastage.Inc()
			spinWork(transferUnits(s.space.Size(id)))
			if j.ft != nil {
				// Attribute the staging transfer to the job whose working
				// set triggered it — the rest of the batch rides along.
				j.ft.add(trace.KindPercolate, sh.id, sh.locale, j.spanArg(),
					fmt.Sprintf("staged obj %d into locale %d", id, sh.locale))
			}
		}
	}
}

// RegisterTenant installs a tenant and returns its handle — the
// identity (name hash, composed middleware chain, shard residency,
// counters, data objects) is resolved once here so submissions through
// the handle do no per-call lookup. With CodeSize > 0 each shard's first
// job pays transferCycles(CodeSize); with Warm the percolation is paid
// up front so no request ever sees it. Declared Objects are allocated
// in the shared space (and replicated everywhere with PercolateData),
// ready to be named in request working sets.
func (s *Server) RegisterTenant(cfg TenantConfig) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: tenant name required")
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("serve: tenant %q has no handler", cfg.Name)
	}
	locales := s.sys.Locales()
	for i, obj := range cfg.Objects {
		if obj.Home != AutoHome && (obj.Home < 0 || obj.Home >= locales) {
			return nil, fmt.Errorf("serve: tenant %q object %d homed at locale %d, have %d locales",
				cfg.Name, i, obj.Home, locales)
		}
	}
	// Registrations serialize so the duplicate check is authoritative:
	// a rejected registration must leave no trace — no monitor
	// instruments installed, no objects allocated — even when the same
	// name races in from two goroutines. Reads (Tenant, the submit
	// shims) stay lock-free on the sync.Map.
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if _, ok := s.tenants.Load(cfg.Name); ok {
		return nil, fmt.Errorf("serve: tenant %q already registered", cfg.Name)
	}
	h := composeMiddleware(cfg.Handler, cfg.Middleware, s.cfg.Middleware)
	t := &Tenant{
		srv:      s,
		name:     cfg.Name,
		hash:     fnv64a(cfg.Name),
		mw:       append([]Middleware(nil), cfg.Middleware...),
		codeSize: cfg.CodeSize,
		resident: make([]atomic.Bool, len(s.shards)),
		acc:      s.sys.Mon.Counter("serve.tenant." + cfg.Name + ".accepted"),
		rej:      s.sys.Mon.Counter("serve.tenant." + cfg.Name + ".rejected"),
		shed:     s.sys.Mon.Counter("serve.tenant." + cfg.Name + ".shed"),
		ok:       s.sys.Mon.Counter("serve.tenant." + cfg.Name + ".done"),
		waitUS:   s.sys.Mon.EWMA("serve.tenant."+cfg.Name+".wait_us", 0.05),
		latUS:    s.sys.Mon.EWMA("serve.tenant."+cfg.Name+".latency_us", 0.05),
	}
	// Every tenant's plain Submit path executes as a degenerate
	// one-stage pipeline over the composed handler: one admission core
	// for single submits and flows. The solo stage carries no extra
	// counters — its outcomes are the tenant counters.
	t.solo = &Pipeline{t: t, name: "solo", stages: []*pipeStage{
		{idx: 0, name: "handler", handler: h, last: true},
	}}
	if s.comp != nil {
		// Continuous compilation watches this tenant: a per-tenant key
		// sketch fed on admission, and a fast-path table the controller
		// populates with specialized handlers for promoted keys.
		t.sketch = contc.NewKeySketch(s.cfg.Compile.SketchWidth, 2*s.cfg.Compile.MaxHot)
		t.fast = newFastTable(s.cfg.Compile.MaxHot)
		t.specialize = cfg.Specialize
	}
	if cfg.CodeSize <= 0 || cfg.Warm {
		// No image to move, or it was percolated ahead of traffic.
		for i := range t.resident {
			t.resident[i].Store(true)
		}
	}
	for i, obj := range cfg.Objects {
		home := obj.Home
		if home == AutoHome {
			home = i % locales
		}
		id := s.space.Alloc(mem.Locale(home), obj.Size)
		t.objects = append(t.objects, id)
		if cfg.PercolateData {
			for loc := 0; loc < locales; loc++ {
				s.space.Replicate(id, mem.Locale(loc))
			}
		}
	}
	s.tenants.Store(cfg.Name, t)
	return t, nil
}
