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
// Every engine is a shard of a Cluster — a standalone engine is the one
// shard of a one-shard cluster — and every event, local or posted from
// another shard, is an entry in its shard's heap under one ordering key:
// (timestamp, rank, source shard, insertion). The cluster runs its shards
// in one exact global order, (timestamp, shard) and then the key
// (cluster.go).
//
// The event queue is the hottest data structure in the repository: every
// frame, segment, and wakeup of every experiment passes through it, so
// events-per-second of this engine bounds the throughput of the whole
// evaluation suite. It is therefore built for zero steady-state allocation:
// events are plain 24-byte values in a slice-backed 4-ary min-heap (no
// boxing, no per-event heap object, no interface conversions), and popped
// slots are recycled in place — the slice's spare capacity acts as the
// event free-list, so Schedule/Step allocate only when the queue grows past
// its high-water mark. A post's handler and argument ride a recycled slot
// (postSlot), so posting does not allocate either once the slots in flight
// reach their high-water mark.
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
	key uint64 // rank<<rankShift | src<<srcShift | seq: the order within a timestamp
	fn  func()
}

// The key's fields. rank is 0 for a shard's own events and 1+pri for a
// post, so at one instant a shard's own work runs before foreign hand-offs,
// and posts run by priority; src is the posting shard (NewCluster caps a
// cluster at 1<<(rankShift-srcShift) shards); seq is the engine's insertion
// count, shared by both kinds, so events of one rank and source run FIFO.
// 2^47 insertions on one shard are out of reach, so seq never carries.
const (
	rankShift = 55
	srcShift  = 47
)

// before is the heap order: earliest time first, then the key.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// arity is the fan-out of the d-ary heap. Four children per node keeps the
// tree half as deep as a binary heap, which matters because the dominant
// operation is siftDown on Step: fewer levels means fewer cache lines
// touched per pop, at the price of three extra comparisons per level that
// all hit the same lines.
const arity = 4

// Engine is one shard of a Cluster: a clock and a heap. It is not safe for
// concurrent use; one whole simulation runs on one goroutine, which is what
// makes runs bit-for-bit deterministic. Distinct clusters share no state at
// all, so independent simulations may run on concurrent goroutines (the
// parallel experiment runner relies on exactly this).
//
// NewEngine returns the one shard of a one-shard cluster; a sharded
// simulation gets its engines from NewCluster, and cross-shard traffic flows
// through Post. Either way Run/Step and friends drive the whole cluster.
type Engine struct {
	now       Time
	heap      []event // slice-backed 4-ary min-heap, values not pointers
	seq       uint64  // insertions, ever: the key's last field
	processed uint64
	cluster   *Cluster
	shard     int
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return NewCluster(1, 1, 0).Shard(0) }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events the cluster executed so far (useful
// as a livelock guard in tests); ProcessedLocal counts this shard's alone.
func (e *Engine) Processed() uint64 { return e.cluster.Processed() }

// Pending returns the number of scheduled-but-unexecuted events, cluster-wide.
func (e *Engine) Pending() int { return e.cluster.Pending() }

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
	e.push(at, 0, fn)
}

// After runs fn d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// push inserts fn at time at with the key's rank and source fields already
// in tag. An event on a shard other than the running one bounds the run.
func (e *Engine) push(at Time, tag uint64, fn func()) {
	e.seq++
	e.heap = append(e.heap, event{at: at, key: tag | e.seq, fn: fn})
	e.siftUp(len(e.heap) - 1)
	if c := e.cluster; e.shard != c.run {
		c.bound(e.shard, at)
	}
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

// Step executes the cluster's single earliest pending event, advancing its
// shard's clock to its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool { return e.cluster.Step() }

// Run executes events until none remain anywhere in the cluster.
func (e *Engine) Run() { e.cluster.Run() }

// RunUntil executes every event with timestamp <= t and then advances the
// clock to exactly t (even if the queue drained earlier or further events
// remain beyond t).
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	e.cluster.RunUntil(t)
}

// RunFor executes events for the next d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// RunCapped runs until the queue drains or maxEvents have been processed,
// reporting whether the queue drained (Pending()==0, also when the last
// event the budget allows empties it). It guards tests against livelock.
func (e *Engine) RunCapped(maxEvents uint64) bool { return e.cluster.RunCapped(maxEvents) }
