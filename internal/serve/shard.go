package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// shard is one admission queue: a bounded MPSC ring (see ring.go) whose
// jobs run in batch SGTs at the shard's locale. Jobs hash onto shards by
// (tenant, key) — or, for requests declaring a working set under
// locality routing, onto a shard at the set's majority home locale — so
// the admission hot path touches exactly one shard ring and never
// anything global, and never a lock at all on the producer side.
//
// No thread waits for work. A submit is the spawn: the producer that
// publishes a job no batch SGT is on its way to drain starts one itself
// (kick), and each batch SGT runs one batch, then starts its successor
// if it left work behind (runBatch). The hand-off cannot lose a job: a
// producer publishes and then loads sgts; a batch SGT updates sgts after
// its drain and again as it retires, each time before it checks the
// head slot (ring.ready); with sequentially consistent atomics at least
// one side sees the other's store.
type shard struct {
	id     int
	locale mem.Locale // where the shard's batch SGTs run
	ring   jobRing
	ctrl   *batchController // nil unless Config.Adapt is enabled
	srv    *Server
	// sgts counts the shard's batch SGTs in one word, so a spawn decision
	// reads both counts at once: the low 32 bits are the active ones
	// (spawned, not yet retired; at most maxSGTs = InflightBatches), the
	// high 32 the fresh ones among them (not yet drained). runs holds one
	// batch record per active SGT, and a record goes back before the
	// count drops, so taking one never waits.
	sgts    atomic.Int64
	maxSGTs int64 // 0 for a shard built without a server: nothing spawns
	runs    chan *batchRun
	// jobs recycles this shard's Job records: construct takes one from
	// here (newJob), finishJob or refuse returns it zeroed (recycle), so
	// the steady-state submit path allocates nothing.
	jobs sync.Pool
	// Always-on drain instruments (atomic, alloc-free): the queue depth
	// seen at each drain and the size of each executed batch. They feed
	// Server.Snapshot's per-shard histograms.
	qdepth, bsize *monitor.Histogram
}

// newShard builds a detached shard; New attaches it to its server (srv,
// maxSGTs, runs). A detached shard never starts a batch SGT, so the jobs
// queued on it stay put.
func newShard(id, depth int) *shard {
	sh := &shard{id: id}
	sh.ring.init(depth)
	return sh
}

// newJob takes a recycled Job record (or a fresh one while the pool
// warms up). Fields are zero on return — recycle clears them.
func (sh *shard) newJob() *Job {
	j, _ := sh.jobs.Get().(*Job)
	if j == nil {
		j = &Job{}
	}
	return j
}

// recycle zeroes a job record and returns it to this shard's pool (the
// executing shard's — a stolen job recycles where it ran). Callers copy
// out the sink and the flow reference first, and use them only after:
// a recycled record can never resolve a stale sink or pin a dead flow.
func (sh *shard) recycle(j *Job) {
	*j = Job{}
	sh.jobs.Put(j)
}

// enqueue publishes j on the shard's ring and starts a batch SGT if
// none is about to drain it (kick). It reports false when the ring is
// full or shut: the caller refuses the job at admission (backpressure)
// rather than queueing unboundedly.
func (sh *shard) enqueue(j *Job) bool {
	r := &sh.ring
	if !r.begin() {
		return false
	}
	ok := r.push(j)
	if ok {
		sh.kick()
	}
	r.end()
	return ok
}

// freshSGT is one fresh batch SGT in shard.sgts.
const freshSGT = 1 << 32

// kick starts a batch SGT at the shard's locale unless a fresh one will
// drain the ring anyway or the shard is at InflightBatches. Both tests
// are one compare: any fresh count puts the word above maxSGTs. A
// producer kicks after publishing; a batch SGT kicks when its drain, or
// its retirement, leaves work queued. Every call is inside a ring
// producer section, on a running batch SGT, or on the rebalancer (which
// Close stops first), so Close's quiesce and inflight wait cover the
// spawn.
func (sh *shard) kick() {
	for {
		st := sh.sgts.Load()
		if st >= sh.maxSGTs {
			return
		}
		if sh.sgts.CompareAndSwap(st, st+1+freshSGT) {
			break
		}
	}
	br := <-sh.runs
	sh.srv.inflight.Add(1)
	sh.srv.sys.RT.GoAtDetached(int(sh.locale), 0, runBatch, br)
}

// pending returns the current queue depth — the rebalancer's per-shard
// load signal.
func (sh *shard) pending() int { return sh.ring.pending() }

// shutdown stops admission; the batch SGTs run what is queued.
func (sh *shard) shutdown() { sh.ring.shutdown() }

// stealScratch is the rebalancer's reusable working memory for
// stealJobsInto: sibling counts and candidate positions. The control
// loop serializes rebalance ticks, so one instance per server suffices
// and a tick that moves nothing allocates nothing.
type stealScratch struct {
	siblings map[uint64]int
	pos      []uint64
}

// stealJobsInto moves up to want queued jobs from src's ring onto dst —
// the rebalancer's work-migration primitive (the serving analogue of
// the paper's dynamic load adaptation). Two invariants bound what may
// move:
//
//   - same-key order: only jobs whose (tenant, key) routing pair is
//     unique in src's queue are candidates, so co-queued same-key jobs
//     are never separated or reordered. (Queue order is the invariant
//     serving provides and stealing preserves: same-key jobs drained
//     into different in-flight batches already execute concurrently
//     when InflightBatches > 1, and a same-key job admitted after a
//     steal may drain on the home shard while the stolen singleton
//     waits behind the thief's backlog.)
//   - residency: a job only moves to a shard where its tenant's code
//     image is already resident AND every object of its declared working
//     set has a valid copy at the destination's locale, so stealing
//     never trades queue wait for a cold code transfer or a string of
//     remote data accesses.
//
// Among candidates the newest move first: the oldest jobs keep their
// head-of-queue position on their home shard.
//
// Locking: only src's consumer lock is held. Insertion into dst rides
// the ordinary producer protocol (reserve, publish), and it happens
// BEFORE removal from src — the two-phase order under src.consMu means
// a job is never in two rings at once and never lost: dst slots are
// reserved first, and only the jobs that got slots leave src. Removal
// compacts the surviving jobs toward the newer end of src's consumed
// window (descending copy, preserving relative order) and frees the
// oldest positions. Returns the number of jobs moved.
func stealJobsInto(src, dst *shard, want int, sc *stealScratch) int {
	if src == dst || want <= 0 {
		return 0
	}
	// Early-outs before any scratch work: an idle source, a full or shut
	// destination — the common no-op tick must not touch the maps.
	if src.ring.pending() == 0 || dst.ring.pending() >= int(dst.ring.limit) ||
		src.ring.shut.Load() || dst.ring.shut.Load() {
		return 0
	}
	src.ring.consMu.Lock()
	defer src.ring.consMu.Unlock()
	r := &src.ring
	h := r.head.Load()
	t := r.tail.Load()
	// Only the published contiguous prefix is stealable; a gap means a
	// producer is mid-publish and everything past it stays put this tick.
	n := uint64(0)
	for h+n < t {
		if r.cells[(h+n)&r.mask].seq.Load() != h+n+1 {
			break
		}
		n++
	}
	if n == 0 {
		return 0
	}
	if sc.siblings == nil {
		sc.siblings = make(map[uint64]int, n)
	} else {
		clear(sc.siblings)
	}
	for p := h; p < h+n; p++ {
		sc.siblings[r.cells[p&r.mask].job.routeHash()]++
	}
	sc.pos = sc.pos[:0]
	for p := h; p < h+n; p++ {
		j := r.cells[p&r.mask].job
		if sc.siblings[j.routeHash()] == 1 && j.tenant.residentAt(dst.id) && j.dataResidentAt(dst.locale) {
			sc.pos = append(sc.pos, p)
		}
	}
	if len(sc.pos) > want {
		sc.pos = sc.pos[len(sc.pos)-want:]
	}
	if len(sc.pos) == 0 {
		return 0
	}
	// Phase 1: reserve destination slots. Only as many jobs leave src as
	// dst actually granted — the newest among the candidates win, same
	// as the want clamp.
	if !dst.ring.begin() {
		return 0
	}
	k, dpos := dst.ring.reserve(len(sc.pos))
	if k == 0 {
		dst.ring.end()
		return 0
	}
	taken := sc.pos[len(sc.pos)-k:]
	for i, p := range taken {
		j := r.cells[p&r.mask].job
		// Steal accounting strictly BEFORE publish: the instant the job
		// is published to dst it is drainable there, and a destination
		// batch SGT may execute and recycle it while this loop is still
		// running — after publish the job must never be touched again.
		if j.stage.steals != nil {
			j.stage.steals.Inc()
		}
		if j.flow != nil {
			j.tenant.srv.flowSteals.Inc()
		}
		if j.ft != nil {
			j.ft.add(trace.KindSteal, dst.id, dst.locale, j.spanArg(),
				fmt.Sprintf("stolen: shard %d -> %d", src.id, dst.id))
		}
		dst.ring.publish(dpos+uint64(i), j)
	}
	dst.kick()
	dst.ring.end()
	// Phase 2: compact src. Walk the window newest-first, sliding every
	// kept job toward the newer end; the slots are all published, so
	// moving payloads between them under consMu is invisible to
	// producers (which never touch published slots) and to the batch
	// SGTs (excluded by consMu). Relative order of kept jobs is
	// preserved.
	ti := len(taken) - 1
	w := h + n - 1
	for p := h + n; p > h; p-- {
		cur := p - 1
		if ti >= 0 && taken[ti] == cur {
			ti--
			continue
		}
		if w != cur {
			r.cells[w&r.mask].job = r.cells[cur&r.mask].job
		}
		w--
	}
	// Free the k oldest positions and advance head past them.
	size := r.mask + 1
	for p := h; p < h+uint64(k); p++ {
		c := &r.cells[p&r.mask]
		c.job = nil
		c.seq.Store(p + size)
	}
	r.head.Store(h + uint64(k))
	// A src batch SGT exiting during the compaction may have read the old
	// head and then a slot freed above: it saw no work and started no
	// successor. This check, after the stores, is its other half.
	if r.ready() {
		src.kick()
	}
	return k
}

// batchRun is one batch SGT's record: the drained jobs and the reused
// per-batch execution context. A shard owns InflightBatches of them, one
// per batch SGT it may have active. limit is the drain bound the batch
// was taken with (0 until its survivors are known: nothing joins a batch
// still being drained), and now its latest clock read — the drain's
// timestamp, then the end of each executed job.
type batchRun struct {
	sh    *shard
	jobs  []*Job
	ctx   Ctx
	limit int
	now   clock.Nanos
}

// fits reports whether a stage job routed to sh may join the running
// batch br as a continuation instead of entering the ring: a tiny
// continuation at the locale where the flow already is runs inside the
// batch SGT there (TGT grain), not in a fresh batch SGT. It may only if
// br is draining sh, no job is ready in sh's ring (so it overtakes
// nothing admitted before it, and same-key admission order holds), the
// batch is below its drain limit, and the server is open. Continuations
// never pass through the ring, so the rebalancer (stealJobsInto) cannot
// see them; the drain limit bounds how many one batch hides from it.
func (br *batchRun) fits(sh *shard) bool {
	return br != nil && br.sh == sh && len(br.jobs) < br.limit &&
		!sh.ring.ready() && !sh.srv.closed.Load()
}

// take appends a constructed continuation to the running batch,
// accounted and traced exactly like an admission; run applies the
// drain's shed rules to it before it executes.
func (br *batchRun) take(j *Job) {
	sh := br.sh
	j.tenant.acc.Inc()
	if j.ft != nil {
		j.ft.add(trace.KindAdmit, sh.id, sh.locale, j.spanArg(), "")
	}
	br.jobs = append(br.jobs, j)
}

// runBatch is the batch SGT main — a static function with its record
// carried by the detached-SGT arg slot, so starting a batch spawns
// without a closure allocation. It runs one batch and retires: the
// record goes back, the active count drops, and only then is the head
// slot re-checked, so a job published during the batch is either seen
// here and given a successor, or its producer sees the drop and spawns
// one.
func runBatch(sg *core.SGT, a any) {
	br := a.(*batchRun)
	sh := br.sh
	defer func() {
		br.ctx = Ctx{shard: sh.id, locale: sh.locale}
		clear(br.jobs)
		br.jobs, br.limit, br.now = br.jobs[:0], 0, 0
		sh.runs <- br
		sh.sgts.Add(-1)
		if sh.ring.ready() {
			sh.kick()
		}
		sh.srv.inflight.Done()
	}()
	br.run(sg)
}

// run drains up to Batch queued jobs (or the batch controller's current
// bound when the adaptivity loop is on), stops counting as fresh and
// starts a sibling if work is queued behind the drain, sheds the expired
// and — under overload — the low-priority jobs, stages the survivors'
// working sets and executes them in order, followed by the continuations
// their flows append (see fits), each shed by the same rules first.
// The drain's clock read is the batch's one coarse timestamp: the shed
// checks, the first job's wait and the service time start from it, and
// each later job starts from the end of the one before.
func (br *batchRun) run(sg *core.SGT) {
	sh := br.sh
	s, r := sh.srv, &sh.ring
	limit := s.cfg.Batch
	if sh.ctrl != nil {
		limit = sh.ctrl.batch()
	}
	r.consMu.Lock()
	batch, depth := r.popMany(limit, br.jobs[:0])
	r.consMu.Unlock()
	br.jobs = batch // keep any capacity growth; cleared on exit
	sh.sgts.Add(-freshSGT)
	if r.ready() {
		sh.kick()
	}
	if len(batch) == 0 {
		return // a sibling or a steal took the work first
	}
	sh.qdepth.Observe(float64(depth))
	if sh.ctrl != nil {
		sh.ctrl.observeDepth(depth)
	}
	start := clock.Now()
	br.now = start
	shedBelow := s.overload.shedLevel()
	live := batch[:0]
	chains := false // a survivor's flow may append continuations
	for _, j := range batch {
		if start > j.deadline {
			s.shed(br, j, "deadline expired in queue")
			continue
		}
		// Only an engaged overload controller (level > 0) sheds by
		// priority; at level 0 even negative priorities run.
		if shedBelow > 0 && j.req.Priority < shedBelow {
			s.shedLow(br, j, shedBelow)
			continue
		}
		live = append(live, j)
		chains = chains || j.flow != nil && !j.stage.last
	}
	clear(batch[len(live):])
	br.jobs = live
	if len(live) == 0 {
		return
	}
	if s.obs != nil {
		// One batch-formation event per traced job; the label (shared
		// across the batch) is built once and only when some job in the
		// batch is traced.
		lbl := ""
		for _, j := range live {
			if j.ft == nil {
				continue
			}
			if lbl == "" {
				lbl = fmt.Sprintf("batch of %d (depth %d)", len(live), depth)
			}
			j.ft.add(trace.KindBatch, sh.id, sh.locale, j.spanArg(), lbl)
		}
	}
	if !chains {
		// Nothing can join this batch, so its size is known now. Observed
		// here, it stays off the tail after the last job resolves, which
		// the next submit to this shard waits on. The observation is also
		// the batch's count in Stats.Batches.
		sh.bsize.Observe(float64(len(live)))
	}
	br.ctx.sgt = sg
	// Stage the batch's working set into this locale before any job
	// runs: one transfer per object per batch, amortized the same way
	// the batch amortizes spawns.
	s.stageBatch(sh, live)
	br.limit = limit
	for i := 0; i < len(br.jobs); i++ {
		j := br.jobs[i]
		if i >= len(live) {
			// A continuation: execute sheds it if its deadline passed;
			// the priority rule, at the current level, and staging are
			// the drain's.
			if lvl := s.overload.shedLevel(); lvl > 0 && j.req.Priority < lvl {
				s.shedLow(br, j, lvl)
				continue
			}
			s.stageBatch(sh, br.jobs[i:i+1])
		}
		s.execute(br, j)
	}
	if chains {
		sh.bsize.Observe(float64(len(br.jobs)))
	}
	if sh.ctrl != nil {
		sh.ctrl.observeLatency(float64(br.now-start) / float64(time.Microsecond))
	}
}
