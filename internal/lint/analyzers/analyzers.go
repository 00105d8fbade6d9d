// Package analyzers holds the kitelint checks: the three analyzers that
// survived the mutation audit in DESIGN.md §11 — each catches, at compile
// time, a fault seeded in the real tree that no tier-1 or -race test
// fails on (an allocation on a cold branch of a zero-alloc path, a pool
// buffer dropped on an early return, host nondeterminism entering a
// simulation).
// internal/lint's TestMutationsCaught re-seeds those faults on every run.
package analyzers

import "kite/internal/lint/analysis"

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Hotpath, Poolref, Simdet}
}
