package contc

import (
	"fmt"
	"time"
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
// deterministic replay tests. Seq and At are the serve decision log's
// stamps (its append sequence and clock time), which the tests strip
// before comparing runs.
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
