// Package simdet exercises the kitelint determinism analyzer: wall-clock
// reads, the process-global math/rand source, unordered map iteration, and
// unjustified goroutines or sync imports inside a //kite:deterministic
// package.
//
//kite:deterministic
package simdet

import (
	"math/rand"
	"sync" // want `sync primitives order goroutines by host scheduling`
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
	go func() { //kite:shardsafe test fixture: joined before anything reads its result
		defer wg.Done()
		fn()
	}()
	wg.Wait()
}

// Atomic counter adds commute, so sync/atomic stays exempt.
func count(c *atomic.Uint64) { c.Add(1) }
