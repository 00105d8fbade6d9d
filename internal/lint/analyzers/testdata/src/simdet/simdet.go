// Package simdet exercises the kitelint determinism analyzer. The test
// loads it under an internal/ import path, so the flat rule applies: no
// wall clock, no global math/rand, no goroutines, channels, sync or
// sync/atomic, no package-level writes, no unjustified map range.
package simdet

import (
	"math/rand"
	"sync"
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
	go fn() // want `go statement: a simulation is one goroutine`
}

func join(fn func()) {
	var wg sync.WaitGroup // want `sync\.WaitGroup: a simulation is one goroutine`
	wg.Add(1)
	fn()
	wg.Wait()
}

func count(c *atomic.Uint64) { c.Add(1) } // want `sync/atomic\.Uint64`

func channels(in chan int) int { // want `channel type`
	in <- 1  // want `channel send`
	select { // want `select`
	default:
	}
	n := <-in           // want `channel receive`
	for v := range in { // want `channel receive`
		n += v
	}
	return n
}

var (
	seen  uint64
	table = map[string]int{}
	conf  struct{ depth int }
)

func globals(local []int) {
	seen++           // want `assignment to package-level simdet\.seen`
	table["k"] = 1   // want `assignment to package-level simdet\.table`
	conf.depth = 2   // want `assignment to package-level simdet\.conf`
	rand.Seed(1)     // want `seeded per-process`
	seen := seen + 1 // a local that shadows: clean
	local[0] = int(seen)
}
