// Package fanout is the only place under internal/ (outside the lint suite)
// where goroutines meet: a bounded pool that spreads independent closures
// over host threads and joins them. It imports nothing of the simulator, so
// what it runs concurrently is opaque to it — whole simulations, each on
// the goroutine it was handed — and Go's import graph, not an annotation,
// is what keeps host scheduling out of a timeline. kitelint's simdet rule
// forbids `go`, channels, sync and sync/atomic everywhere else under
// internal/.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Pool bounds how many closures run concurrently.
type Pool struct {
	tokens chan struct{} // one slot per concurrent closure
}

// NewPool returns a pool admitting up to workers concurrent closures
// (min 1).
func NewPool(workers int) *Pool {
	return &Pool{tokens: make(chan struct{}, max(workers, 1))}
}

// Each runs fn(0..n-1), at most the pool's bound at a time, and returns
// the results by index once all have finished.
func Each[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	for i := range n {
		p.tokens <- struct{}{} // blocking acquire
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.tokens }()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	return out
}

// Pair runs a and b and returns when both have: a on a spare worker when
// the pool has one free right now, otherwise (or with a nil pool) a then b
// inline. It never blocks on admission, which is what makes nested use —
// a Pair inside an Each closure — deadlock-free.
func (p *Pool) Pair(a, b func()) {
	if p != nil {
		select {
		case p.tokens <- struct{}{}:
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { <-p.tokens }()
				a()
			}()
			b()
			<-done
			return
		default:
		}
	}
	a()
	b()
}

// counted is the process-wide tally behind Count and Counted. It is
// telemetry: nothing a closure computes may read it back.
var counted atomic.Uint64

// Count adds d to the process-wide tally; closures on any goroutine may.
func Count(d uint64) { counted.Add(d) }

// Counted returns the tally so far.
func Counted() uint64 { return counted.Load() }
