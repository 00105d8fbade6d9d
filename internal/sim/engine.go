// Package sim provides the deterministic discrete-event simulation core on
// which the whole Kite reproduction runs: a virtual clock with an event
// heap, virtual CPUs with busy-time accounting, and wakeable tasks that
// model the paper's threaded execution model (netback's pusher/soft_start
// threads, blkback's request thread, the backend-invocation thread).
//
// Virtual time is measured in integer nanoseconds (sim.Time). All mechanism
// in the repository (rings, grant copies, packet movement) executes for
// real; sim only decides *when* each step happens and how much virtual CPU
// it consumes.
//
// The event queue is the hottest data structure in the repository: every
// frame, segment, and wakeup of every experiment passes through it, so
// events-per-second of this engine bounds the throughput of the whole
// evaluation suite. It is therefore built for zero steady-state allocation:
// events are plain values in a slice-backed 4-ary min-heap (no boxing, no
// per-event heap object, no interface conversions), and popped slots are
// recycled in place — the slice's spare capacity acts as the event
// free-list, so Schedule/Step allocate only when the queue grows past its
// high-water mark.
package sim

import "fmt"

// Time is virtual time in nanoseconds since engine start.
type Time int64

// Convenient duration units (all expressed in Time nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is stored by value inside the heap slice; it never escapes to the
// Go heap on its own.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run FIFO
	fn  func()
}

// before is the heap order: earliest time first, FIFO within a timestamp.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// arity is the fan-out of the d-ary heap. Four children per node keeps the
// tree half as deep as a binary heap, which matters because the dominant
// operation is siftDown on Step: fewer levels means fewer cache lines
// touched per pop, at the price of three extra comparisons per level that
// all hit the same lines.
const arity = 4

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; one whole simulation runs on one goroutine, which is what
// makes runs bit-for-bit deterministic. Distinct Engine instances share no
// state at all, so independent simulations may run on concurrent goroutines
// (the parallel experiment runner relies on exactly this).
//
// An Engine may also be one shard of a Cluster (see cluster.go): the whole
// cluster then runs on that one goroutine, and all cross-shard traffic flows
// through Post, which puts it straight into the destination's inbox.
// Run/Step and friends on a clustered engine drive the whole cluster.
type Engine struct {
	now       Time
	heap      []event // slice-backed 4-ary min-heap, values not pointers
	seq       uint64
	processed uint64

	// Sharding state (nil/zero for a standalone engine; see cluster.go).
	cluster   *Cluster
	shard     int
	postSeq   uint64    // posts made, ever: the inbox order's last tie-break
	inbox     []postRec // posts from other shards, kept in postRec.before order, consumed front to back
	inboxHead int
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far (useful as a
// livelock guard in tests); cluster-wide when sharded.
func (e *Engine) Processed() uint64 {
	if e.cluster != nil {
		return e.cluster.Processed()
	}
	return e.processed
}

// Pending returns the number of scheduled-but-unexecuted events
// (cluster-wide when sharded).
func (e *Engine) Pending() int {
	if e.cluster != nil {
		return e.cluster.Pending()
	}
	return len(e.heap)
}

// Schedule runs fn at virtual time at. Scheduling in the past is a
// programming error and panics: it would silently reorder causality.
//
// Steady-state cost: one slice append into recycled capacity plus a
// siftUp — no allocation once the heap has reached its high-water mark.
// Callers on hot paths should pass a long-lived func value (method values
// and fresh closures allocate at the call site; see Task and Batch).
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.heap = append(e.heap, event{at: at, seq: e.seq, fn: fn})
	e.siftUp(len(e.heap) - 1)
}

// After runs fn d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed. On a clustered
// engine it steps the whole cluster (globally earliest event).
func (e *Engine) Step() bool {
	if e.cluster != nil {
		return e.cluster.Step()
	}
	if len(e.heap) == 0 {
		return false
	}
	e.stepHeap()
	return true
}

// stepHeap pops and runs the heap root; the heap must be non-empty.
func (e *Engine) stepHeap() {
	n := len(e.heap)
	root := e.heap[0]
	n--
	if n > 0 {
		e.heap[0] = e.heap[n]
	}
	// Drop the closure reference from the vacated slot so the spare
	// capacity (the free-list) does not pin dead callbacks; the slot's
	// memory itself is recycled by the next Schedule.
	e.heap[n].fn = nil
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	e.now = root.at
	e.processed++
	root.fn()
}

// Run executes events until none remain (cluster-wide when sharded).
func (e *Engine) Run() {
	if e.cluster != nil {
		e.cluster.Run()
		return
	}
	for e.Step() {
	}
}

// RunUntil executes every event with timestamp <= t and then advances the
// clock to exactly t (even if the queue drained earlier or further events
// remain beyond t).
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	if e.cluster != nil {
		e.cluster.RunUntil(t)
		return
	}
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	e.now = t
}

// RunFor executes events for the next d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// RunCapped runs until the queue drains or maxEvents have been processed,
// reporting whether the queue drained (Pending()==0, also when the last
// event the budget allows empties it). It guards tests against livelock.
func (e *Engine) RunCapped(maxEvents uint64) bool {
	if e.cluster != nil {
		return e.cluster.RunCapped(maxEvents)
	}
	for n := uint64(0); n < maxEvents && e.Step(); n++ {
	}
	return len(e.heap) == 0
}
