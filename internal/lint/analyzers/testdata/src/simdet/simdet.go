// Package simdet exercises the kitelint determinism analyzer: wall-clock
// reads, the process-global math/rand source, unordered map iteration, and
// unjustified goroutines or sync imports inside a //kite:deterministic
// package.
//
//kite:deterministic
package simdet

import (
	"math/rand"
	"sync" // want `sync primitives order goroutines outside the window barrier`
	"sync/atomic"
	"time"
)

func clock() time.Time {
	return time.Now() // want `reads the wall clock`
}

func roll() int {
	return rand.Intn(6) // want `seeded per-process`
}

func iterate(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration order is nondeterministic`
		total += v
	}
	return total
}

func iterateJustified(m map[string]int) int {
	n := 0
	for range m { //kite:orderok count is order-insensitive
		n++
	}
	return n
}

// Duration arithmetic stays legal: only clock reads are banned.
func window(d time.Duration) time.Duration { return 2 * d }

func spawn(fn func()) {
	go fn() // want `goroutines can leak scheduling into the timeline`
}

func spawnJustified(fn func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //kite:shardsafe test fixture: joined before the window ends
		defer wg.Done()
		fn()
	}()
	wg.Wait()
}

// Atomic counter adds commute, so sync/atomic stays exempt.
func count(c *atomic.Uint64) { c.Add(1) }

// parkedWorker mirrors the cluster's persistent barrier workers: a
// long-lived goroutine that spins on an atomic epoch, parks on a buffered
// wake channel, and is joined through a WaitGroup at retirement. The
// //kite:shardsafe justification on the spawn is what makes the pattern
// acceptable inside a deterministic package; the epoch/channel machinery
// itself needs no directive (atomics are exempt, channel ops are not
// flagged by simdet — evblock guards them on event-handler paths).
type parkedWorker struct {
	epoch  atomic.Uint64
	wake   chan struct{}
	retire atomic.Bool
}

func runParked(w *parkedWorker, wg *sync.WaitGroup, body func()) {
	wg.Add(1)
	go func() { //kite:shardsafe test fixture: epoch-barrier worker, effects ordered by the merge
		defer wg.Done()
		seen := uint64(0)
		for !w.retire.Load() {
			if e := w.epoch.Load(); e != seen {
				seen = e
				body()
				continue
			}
			<-w.wake // park until the next epoch publish
		}
	}()
}

// timedDispatch mirrors the cluster's window dispatcher: the
// synchronization core may time a stretch of host execution to pick which
// goroutine runs the next window, because that choice never reaches the
// timeline.
//
//kite:synccore test fixture: host timing confined to the dispatch decision
func timedDispatch(run func()) time.Duration {
	start := time.Now()
	run()
	return time.Since(start)
}

// The escape covers clock reads only — nothing that waits on the clock.
//
//kite:synccore test fixture: sleeping is not timing
func sleepyDispatch() {
	time.Sleep(time.Millisecond) // want `reads the wall clock`
}

// One function over, the same read is flagged: the directive does not leak
// to neighbours or callers.
func timedShardCode(run func()) time.Duration {
	start := time.Now() // want `reads the wall clock`
	run()
	return time.Since(start) // want `reads the wall clock`
}
