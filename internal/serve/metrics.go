package serve

// Metrics export: one structured, JSON-ready Snapshot of everything the
// serve layer measures — the Stats totals, the adaptivity loop, per-shard
// queue-depth and batch-size histograms, the per-tenant outcome counters
// and latency estimators those totals sum, and the observability layer's
// own accounting. htserved serves it at /debug/serve/metrics; tests and
// experiments call it directly.

import (
	"sort"

	"repro/internal/monitor"
)

// Histogram bucket bounds for the always-on per-shard instruments.
// Powers of two: queue depths and batch sizes move by doubling (the
// batch controller grows and shrinks by 2x), so these buckets resolve
// every state the controller can visit.
var (
	queueDepthBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	batchSizeBounds  = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// ShardSnapshot is one admission shard's histograms; its current queue
// depth and drain bound are Adapt.Pending and Adapt.BatchSizes at the
// shard's index.
type ShardSnapshot struct {
	ID     int `json:"id"`
	Locale int `json:"locale"`
	// QueueDepth histograms the depth observed at each drain; BatchSize
	// the number of jobs in each dispatched batch.
	QueueDepth monitor.HistView `json:"queue_depth"`
	BatchSize  monitor.HistView `json:"batch_size"`
}

// TenantSnapshot is one tenant's point-in-time view.
type TenantSnapshot struct {
	Name          string  `json:"name"`
	Accepted      int64   `json:"accepted"`
	Rejected      int64   `json:"rejected"`
	Shed          int64   `json:"shed"`
	Done          int64   `json:"done"`
	Failed        int64   `json:"failed"`
	WaitEWMAus    float64 `json:"wait_ewma_us"`
	LatencyEWMAus float64 `json:"latency_ewma_us"`
}

// ObserveSnapshot is the observability layer's own accounting.
type ObserveSnapshot struct {
	Enabled    bool    `json:"enabled"`
	SampleRate float64 `json:"sample_rate"`
	// TracedFlows counts submissions that carried a trace context;
	// Recorded is the flight recorder's current occupancy.
	TracedFlows int64 `json:"traced_flows"`
	Recorded    int   `json:"recorded"`
	// AdaptEvents counts the decisions appended to the decision log;
	// DroppedEvents counts those its bound overwrote.
	AdaptEvents   int64 `json:"adapt_events"`
	DroppedEvents int64 `json:"dropped_events"`
}

// Snapshot is the server's full metrics export: the flat Stats
// aggregate, the adaptivity loop's view, and the per-shard / per-tenant
// breakdowns the flat view rolls up.
type Snapshot struct {
	Stats   Stats            `json:"stats"`
	Adapt   AdaptStats       `json:"adapt"`
	Shards  []ShardSnapshot  `json:"shards"`
	Tenants []TenantSnapshot `json:"tenants"`
	Observe ObserveSnapshot  `json:"observe"`
}

// Snapshot assembles the full metrics export. Safe to call concurrently
// with traffic — every instrument read is atomic, so the view is
// per-instrument consistent (the same guarantee Stats gives).
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Stats:  s.Stats(),
		Adapt:  s.AdaptStats(),
		Shards: make([]ShardSnapshot, len(s.shards)),
	}
	for i, sh := range s.shards {
		snap.Shards[i] = ShardSnapshot{
			ID:         sh.id,
			Locale:     int(sh.locale),
			QueueDepth: sh.qdepth.View(),
			BatchSize:  sh.bsize.View(),
		}
	}
	s.tenants.Range(func(_, v any) bool {
		t := v.(*Tenant)
		snap.Tenants = append(snap.Tenants, TenantSnapshot{
			Name:          t.name,
			Accepted:      t.acc.Value(),
			Rejected:      t.rej.Value(),
			Shed:          t.shed.Value(),
			Done:          t.ok.Value(),
			Failed:        t.fail.Value(),
			WaitEWMAus:    t.waitUS.Value(),
			LatencyEWMAus: t.latUS.Value(),
		})
		return true
	})
	sort.Slice(snap.Tenants, func(i, j int) bool {
		return snap.Tenants[i].Name < snap.Tenants[j].Name
	})
	if o := s.obs; o != nil {
		n := s.decisions.appended()
		snap.Observe = ObserveSnapshot{
			Enabled:       true,
			SampleRate:    o.cfg.SampleRate,
			TracedFlows:   o.traced.Value(),
			Recorded:      o.recorder.Len(),
			AdaptEvents:   n,
			DroppedEvents: max(n-decisionLogSize, 0),
		}
	}
	return snap
}
