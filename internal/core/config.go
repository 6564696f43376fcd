// Package core implements the HTVM thread model (Section 3.1): a
// three-level thread hierarchy executing on native goroutines.
//
//   - LGT (large-grain thread): a dedicated goroutine with its own
//     private heap, seeing the global address space. High invocation
//     cost, substantial state — the paper's coarse-grain level
//     (Cascade high-weight threads, Cyclops-64 TiNy Threads).
//   - SGT (small-grain thread): a work-stealing task with its own frame
//     storage, invoked from an LGT or another SGT. Much cheaper than an
//     LGT — the paper's threaded function calls (Cilk, EARTH) and
//     parcel activations.
//   - TGT (tiny-grain thread, "fiber"): a run-to-completion code block
//     sharing the frame of its enclosing SGT, enabled by a dataflow
//     sync slot — the paper's EARTH fibers / CARE strands.
//
// The scheduler implements dynamic load adaptation (Section 2): idle
// workers steal, first within their locale and then — when the policy
// allows — across locales, which is the runtime thread migration the
// target architectures support in hardware.
package core

import "repro/internal/monitor"

// StealPolicy controls how far an idle worker may look for work.
type StealPolicy int

// Stealing policies. The zero value is StealGlobal: a runtime that
// balances load everywhere is the sensible default, and the restricted
// policies exist for the load-adaptation ablation (EXP-A2).
const (
	// StealGlobal allows stealing anywhere, including across locales —
	// thread migration in the paper's sense. The default.
	StealGlobal StealPolicy = iota
	// StealLocal allows stealing only between workers of the same locale.
	StealLocal
	// StealNone disables stealing: SGTs run only on the worker they
	// were submitted to. The baseline for the load-adaptation ablation.
	StealNone
)

// String names the policy.
func (p StealPolicy) String() string {
	switch p {
	case StealNone:
		return "none"
	case StealLocal:
		return "local"
	case StealGlobal:
		return "global"
	}
	return "policy?"
}

// Config configures a Runtime. The zero value is usable: one locale,
// GOMAXPROCS workers, global stealing.
type Config struct {
	// Locales is the number of nodes the runtime models. SGTs carry a
	// home locale; cross-locale steals are counted as migrations.
	Locales int
	// WorkersPerLocale is the number of worker goroutines per locale
	// (0 means a sensible default derived from GOMAXPROCS).
	WorkersPerLocale int
	// Steal selects the stealing policy.
	Steal StealPolicy
	// Monitor receives runtime counters (may be nil for a private one).
	Monitor *monitor.Monitor
	// Seed makes victim selection deterministic across runs.
	Seed uint64
}
