package serve

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// shard is one admission queue: a bounded MPSC ring (see ring.go)
// drained by one dedicated dispatcher LGT pinned to the shard's locale.
// Jobs hash onto shards by (tenant, key) — or, for requests declaring a
// working set under locality routing, onto a shard at the set's
// majority home locale — so the admission hot path touches exactly one
// shard ring and never anything global, and never a lock at all on the
// producer side.
type shard struct {
	id     int
	locale mem.Locale // where the dispatcher LGT and its batch SGTs run
	ring   jobRing
	ctrl   *batchController // nil unless Config.Adapt is enabled
	// jobs recycles this shard's Job records: construct takes one from
	// here (newJob), finishJob or refuse returns it zeroed (recycle), so
	// the steady-state submit path allocates nothing.
	jobs sync.Pool
	// Always-on drain instruments (atomic, alloc-free): the queue depth
	// seen at each drain and the size of each dispatched batch. They
	// feed Server.Snapshot's per-shard histograms.
	qdepth, bsize *monitor.Histogram
}

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

// enqueueMany admits as many of jobs as fit in one ring reservation and
// returns the accepted prefix length (0 when shut): the rest are refused
// because the queue is at capacity or the server is closing
// (backpressure: the caller sheds at admission rather than queueing
// unboundedly). A SubmitMany call pays each destination shard's tail CAS
// once, not once per request, and wakes its dispatcher at most once —
// exactly on the empty→non-empty transition.
func (sh *shard) enqueueMany(jobs []*Job) int { return sh.ring.pushMany(jobs) }

// drain blocks until at least one job is queued, then removes and
// returns up to max jobs in admission order, along with the queue depth
// observed before the cut (the batch controller's feedback signal). It
// returns ok=false once the shard is shut and empty. Only the
// dispatcher calls drain.
func (sh *shard) drain(max int, buf []*Job) (batch []*Job, depth int, ok bool) {
	r := &sh.ring
	for {
		r.consMu.Lock()
		batch, depth = r.popMany(max, buf)
		r.consMu.Unlock()
		if len(batch) > 0 {
			return batch, depth, true
		}
		h := r.head.Load()
		if h != r.tail.Load() {
			// Reserved but unpublished head slot: its producer is between
			// CAS and publish and saw a non-empty ring, so it will not
			// signal. Parking here would sleep forever on a ready job —
			// spin through the gap instead (publish is two stores away).
			runtime.Gosched()
			continue
		}
		if r.shut.Load() {
			if r.inflight.Load() != 0 {
				runtime.Gosched() // a last producer may still publish
				continue
			}
			if r.head.Load() == r.tail.Load() {
				return buf, 0, false
			}
			continue
		}
		r.park()
	}
}

// pending returns the current queue depth — the rebalancer's per-shard
// load signal.
func (sh *shard) pending() int { return sh.ring.pending() }

// shutdown stops admission and wakes the dispatcher so it can drain the
// tail and exit.
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
	k, dpos, wasEmpty := dst.ring.reserve(len(sc.pos))
	if k == 0 {
		dst.ring.end()
		return 0
	}
	taken := sc.pos[len(sc.pos)-k:]
	for i, p := range taken {
		j := r.cells[p&r.mask].job
		// Steal accounting strictly BEFORE publish: the instant the job
		// is published to dst it is drainable there, and the destination
		// dispatcher may execute and recycle it while this loop is still
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
	dst.ring.end()
	// Phase 2: compact src. Walk the window newest-first, sliding every
	// kept job toward the newer end; the slots are all published, so
	// moving payloads between them under consMu is invisible to
	// producers (which never touch published slots) and to the
	// dispatcher (excluded by consMu). Relative order of kept jobs is
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
	if wasEmpty {
		dst.ring.signal()
	}
	return k
}

// batchRun is one in-flight batch: the job set, the reused per-batch
// execution context, and the route back to its dispatcher's pool. The
// pool channel holds exactly InflightBatches of these per shard, so
// acquiring one doubles as the in-flight token the old dispatch took —
// execution falling behind still backs jobs up into the bounded ring
// rather than an unbounded SGT pile.
type batchRun struct {
	srv  *Server
	sh   *shard
	jobs []*Job
	ctx  Ctx
	pool chan *batchRun
}

// runBatch is the batch SGT main — a static function with its argument
// carried by the detached-SGT arg slot, so dispatching a batch spawns
// without a closure allocation.
func runBatch(sg *core.SGT, a any) {
	br := a.(*batchRun)
	s, sh := br.srv, br.sh
	// Service time starts when the batch SGT runs, not at drain:
	// including the wait for a batch buffer would inflate the histogram
	// under saturation and gate batch growth exactly when a deep backlog
	// calls for it. This is also the batch's one coarse timestamp: every
	// job's deadline recheck and wait measurement reuses it instead of
	// paying a clock read per job.
	start := time.Now()
	defer func() {
		s.inflight.Done()
		br.ctx.sgt = nil
		br.ctx.tenant = nil
		br.ctx.deadline = time.Time{}
		for i := range br.jobs {
			br.jobs[i] = nil
		}
		br.jobs = br.jobs[:0]
		br.pool <- br
	}()
	br.ctx.sgt = sg
	// Stage the batch's working set into this locale before any job
	// runs: one transfer per object per batch, amortized the same way
	// the batch amortizes spawns.
	s.stageBatch(sh, br.jobs)
	for _, j := range br.jobs {
		s.execute(sg, sh, j, &br.ctx, start)
	}
	if sh.ctrl != nil {
		sh.ctrl.observeLatency(float64(time.Since(start)) / float64(time.Microsecond))
	}
}

// dispatch is the dispatcher body, run on a dedicated LGT. Each wakeup
// drains up to Batch queued jobs (or the batch controller's current
// bound when the adaptivity loop is on), sheds the expired and — under
// overload — the low-priority ones, and submits the survivors as a
// single detached SGT fan-out: one pooled spawn per batch, not per job,
// amortizing spawn and scheduling overhead across the batch. The drain
// buffer and the batchRun buffers are reused for the dispatcher's
// lifetime — steady-state dispatch allocates nothing.
func (s *Server) dispatch(l *core.LGT, sh *shard) {
	defer s.dispatchers.Done()
	bufCap := s.cfg.Batch
	if sh.ctrl != nil {
		bufCap = sh.ctrl.max
	}
	buf := make([]*Job, 0, bufCap)
	pool := make(chan *batchRun, s.cfg.InflightBatches)
	for i := 0; i < s.cfg.InflightBatches; i++ {
		pool <- &batchRun{
			srv: s, sh: sh, pool: pool,
			jobs: make([]*Job, 0, bufCap),
			ctx:  Ctx{shard: sh.id, locale: sh.locale},
		}
	}
	for {
		limit := s.cfg.Batch
		if sh.ctrl != nil {
			limit = sh.ctrl.batch()
		}
		batch, depth, ok := sh.drain(limit, buf[:0])
		if !ok {
			return
		}
		buf = batch // keep any capacity growth for the next drain
		sh.qdepth.Observe(float64(depth))
		if sh.ctrl != nil {
			sh.ctrl.observeDepth(depth)
		}
		now := time.Now()
		shedBelow := s.overload.shedLevel()
		live := batch[:0]
		for _, j := range batch {
			if !j.req.Deadline.IsZero() && now.After(j.req.Deadline) {
				s.shed(sh, j, now, "deadline expired in queue")
				continue
			}
			// Only an engaged overload controller (level > 0) sheds by
			// priority; at level 0 even negative priorities run.
			if shedBelow > 0 && j.req.Priority < shedBelow {
				s.shedLow(sh, j, now, shedBelow)
				continue
			}
			live = append(live, j)
		}
		if len(live) == 0 {
			continue
		}
		sh.bsize.Observe(float64(len(live)))
		if s.obs != nil {
			// One batch-formation event per traced job; the label (shared
			// across the batch) is built once and only when some job in
			// the batch is traced.
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
		br := <-pool // bound in-flight batches for this shard
		br.jobs = append(br.jobs[:0], live...)
		s.batches.Inc()
		s.inflight.Add(1)
		l.GoDetached(runBatch, br)
	}
}
