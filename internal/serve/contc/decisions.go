package contc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Decision kinds.
const (
	KindPlan        = "plan"         // first scatter plan for a stage
	KindReplan      = "replan"       // hot-swap after observed drift
	KindWarmPlan    = "warm-plan"    // plan restored from the persisted hints DB
	KindPromote     = "promote"      // (tenant, key) fast-path slot installed
	KindDemote      = "demote"       // fast-path slot removed, key cooled
	KindWarmPromote = "warm-promote" // fast path restored from the hints DB
)

// Decision is one controller action, recorded for audits and the
// deterministic replay tests. Seq and At are bookkeeping the tests
// strip before comparing runs.
type Decision struct {
	Seq      int64
	At       time.Time
	Kind     string
	Tenant   string
	Pipeline string
	Stage    string
	Strategy string
	Key      uint64
	Fan      int
	MeanUS   float64
	CV       float64
	Reason   string
}

// String renders the decision as its one-line timeline label: what
// moved, for whom, and why. The serve layer's adapt timeline prints
// exactly this, so a logged record and its label cannot disagree.
func (d Decision) String() string {
	if d.Stage == "" {
		return fmt.Sprintf("%s %s key %d (%s)", d.Kind, d.Tenant, d.Key, d.Reason)
	}
	return fmt.Sprintf("%s %s/%s/%s -> %s (%s)", d.Kind, d.Tenant, d.Pipeline, d.Stage, d.Strategy, d.Reason)
}

// Log is a bounded ring of decisions. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	seq  int64
	max  int
	buf  []Decision
	head int // index of oldest when full
	full bool
}

// NewLog returns a log keeping the most recent max decisions.
func NewLog(max int) *Log {
	if max < 1 {
		max = 1
	}
	return &Log{max: max, buf: make([]Decision, 0, max)}
}

// Add stamps and records d, returning the stored value.
func (l *Log) Add(d Decision) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	d.Seq = l.seq
	d.At = clock.Now().Time()
	if len(l.buf) < l.max {
		l.buf = append(l.buf, d)
	} else {
		l.buf[l.head] = d
		l.head = (l.head + 1) % l.max
		l.full = true
	}
	return d
}

// Len returns the number of decisions ever recorded.
func (l *Log) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot returns the retained decisions, oldest first.
func (l *Log) Snapshot() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, len(l.buf))
	if l.full {
		out = append(out, l.buf[l.head:]...)
		out = append(out, l.buf[:l.head]...)
	} else {
		out = append(out, l.buf...)
	}
	return out
}
