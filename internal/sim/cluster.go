package sim

// This file is the sharded deterministic event core: a Cluster partitions
// one simulation into per-shard Engines (one heap each) and executes them
// in one exact global order — the cluster's earliest pending event next,
// ties going to the lowest shard, and within a shard the heap's
// (timestamp, insertion) key (engine.go). Neither tie rule is part of the
// model: ReverseTies flips both for the test that holds it to that.
//
//   - Every cross-shard interaction travels as a *post* with an explicit
//     delay >= the cluster lookahead. Physical latencies (NIC wire +
//     propagation delay, event-channel upcall latency, NVMe command fetch)
//     give every hand-off a natural lower bound, so posts model real
//     hand-off delays rather than artificial slack; the scheduler does not
//     need the bound, Post checks it.
//   - A post is an event: Post pushes it onto the destination shard's heap
//     like any other insertion. Nothing is staged and no barrier merges:
//     one goroutine runs the whole cluster, so the destination is never
//     running while a post arrives.
//   - One loop (runLoop) runs the shard holding the earliest event until
//     another shard's next event comes first, so shard-local stretches run
//     as one batch on a heap-only inner loop, and Step is the same loop
//     with a budget of one. An event pushed onto any other shard while one
//     runs — posted or scheduled directly — lowers that bound. A shard
//     alone with pending events runs to the end of the run (DESIGN.md §6.3,
//     the cluster's one loop).
//   - Declared edges (DeclareEdge) are a check, not an optimisation:
//     once a cluster declares any, Post panics on an undeclared pair and
//     on a delay under the pair's declared minimum. The scheduler does not
//     read them, and only benchmark/ declares any (DESIGN.md §6.6).
//
// A whole Cluster runs on the one goroutine that drives it, like a
// standalone Engine (which is a one-shard Cluster): spreading shards over
// cores measured slower than running them in turn on every host tried,
// because a stage-partitioned pipeline drags each frame's working set across
// cores once per hand-off (DESIGN.md §15's deleted-mechanism table has the
// numbers and what would reopen the question). What sharding buys is the model: every shard keeps
// its own clock and a heap a fraction of the size, and hand-offs carry their
// physical latency.

import "fmt"

// PriData is what every post passes as Post's ignored pri argument: both
// remain because benchmark/ — frozen — passes them (ROADMAP item 1).
const PriData uint8 = 100

// postSlot carries one post's handler and argument through the destination
// heap: the event's fn is the slot's cached fire method value, so an event
// stays 24 B. A fired slot goes back on its cluster's free list, so
// steady-state posting does not allocate.
type postSlot struct {
	c    *Cluster
	fn   func(any)
	arg  any
	fire func() // s.run, bound once
}

func (s *postSlot) run() {
	fn, arg := s.fn, s.arg
	s.fn, s.arg = nil, nil
	s.c.free = append(s.c.free, s)
	fn(arg)
}

// timeMax is the "no bound" sentinel: an undeclared edge's minimum and the
// limit of a run that goes until nothing is pending.
const timeMax = Time(1<<63 - 1)

// Cluster coordinates a set of shard Engines in one global event order.
// Shard 0 is the "home" shard by convention (setup, devices, and anything
// not pinned elsewhere); calling Run/Step/RunUntil on any shard engine
// drives the whole cluster.
type Cluster struct {
	shards    []Engine
	lookahead Time

	tie int // 0, or -1 under ReverseTies: XORed into event keys and shard order

	// Declared edges (flattened n x n, src-major): the minimum delay a post
	// from src to dst may carry, timeMax for a pair nobody declared. Only
	// Post reads it, to refuse what the topology said cannot happen. It stays
	// nil until the first DeclareEdge; until then every pair may post at the
	// cluster lookahead.
	edge []Time

	// run is the running shard and horizon its exclusive bound: runLoop
	// sets both, and bound lowers the horizon for every event pushed onto
	// another shard.
	run     int
	horizon Time

	free []*postSlot // fired post slots, reused before any is allocated

	windows uint64 // uninterrupted runs of one shard
	fused   uint64 // runs in which the shard posted nothing
	posted  uint64 // cross-shard posts made
}

// NewCluster builds n shard engines sharing one virtual clock, with the
// given conservative lookahead (the minimum cross-shard post delay). The
// seed is ignored: benchmark/ — frozen — still passes one (ROADMAP item 1).
func NewCluster(n int, lookahead Time, _ uint64) *Cluster {
	if n < 1 {
		panic("sim: cluster needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{lookahead: lookahead, shards: make([]Engine, n)}
	for i := range c.shards {
		c.shards[i].cluster, c.shards[i].shard = c, i
	}
	return c
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's engine.
func (c *Cluster) Shard(i int) *Engine { return &c.shards[i] }

// Windows returns how many windows have run, a window being one
// uninterrupted run of one shard.
func (c *Cluster) Windows() uint64 { return c.windows }

// Fused returns how many of those windows posted nothing. A statistic
// (benchmark/ reports its share), not a code path.
func (c *Cluster) Fused() uint64 { return c.fused }

// Posted returns how many cross-shard posts have been made.
func (c *Cluster) Posted() uint64 { return c.posted }

// DeclareEdge declares that posts from shard src to shard dst always carry
// a delay of at least min (a physical link/device latency, never below the
// cluster lookahead). It arms a check and changes no horizon: from the first
// declaration on, pairs that are never declared have *no* edge — posting on
// one panics — and a post on a declared pair panics if its delay undercuts
// the pair's minimum, so a topology that wires a hand-off it did not
// declare, or models a latency shorter than it said, fails loudly instead
// of running. Declaring the same pair again keeps the minimum. No rig
// declares an edge; it remains because benchmark/ — frozen — still does
// (ROADMAP item 1).
func (c *Cluster) DeclareEdge(src, dst int, min Time) {
	n := len(c.shards)
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		panic(fmt.Sprintf("sim: DeclareEdge(%d, %d) outside cluster of %d shards", src, dst, n))
	}
	if min < c.lookahead {
		panic(fmt.Sprintf("sim: edge latency %v below cluster lookahead %v", min, c.lookahead))
	}
	if c.edge == nil {
		c.edge = make([]Time, n*n)
		for i := range c.edge {
			c.edge[i] = timeMax
		}
	}
	if min < c.edge[src*n+dst] {
		c.edge[src*n+dst] = min
	}
}

// SetWorkers does nothing: a cluster runs on the goroutine that drives it.
// It remains only because benchmark/ — frozen while this was removed —
// still calls it; no other caller exists, and the method goes when those
// calls do (ROADMAP, Housekeeping).
func (c *Cluster) SetWorkers(int) {}

// runLoop is the one scheduler behind Run, RunUntil, RunCapped and Step: it
// executes up to budget events timestamped before limit, in the global order,
// and returns how many ran. Each pass picks the shard holding the earliest
// pending event, ties to the lowest index (the scan runs backwards under
// ReverseTies), and runs it up to the runner-up's next event (bound), which
// every event pushed onto another shard meanwhile lowers too. A shard alone
// with pending events runs to limit.
//
//kite:hotpath
func (c *Cluster) runLoop(limit Time, budget uint64) uint64 {
	var done uint64
	for done < budget {
		run, next := -1, -1
		rt, nt := limit, limit
		first, step := 0, 1
		if c.tie != 0 {
			first, step = len(c.shards)-1, -1
		}
		for i := first; uint(i) < uint(len(c.shards)); i += step {
			s := &c.shards[i]
			if len(s.heap) == 0 {
				continue
			}
			if t := s.heap[0].at; t < rt {
				next, nt = run, rt
				run, rt = i, t
			} else if t < nt {
				next, nt = i, t
			}
		}
		if run < 0 {
			break
		}
		c.run, c.horizon = run, limit
		c.bound(next, nt)
		c.windows++
		posted := c.posted
		s := &c.shards[run]
		for done < budget {
			// Pop the root and run it, in line: this loop is every event's
			// path. The vacated slot drops its closure so the spare capacity
			// (the free-list) does not pin dead callbacks.
			h := s.heap
			n := len(h) - 1
			if n < 0 || h[0].at >= c.horizon {
				break
			}
			root := h[0]
			if n > 1 {
				s.popRoot()
			} else {
				h[0] = h[n]
				h[n].fn = nil
				s.heap = h[:n]
			}
			s.now = root.at
			s.processed++
			done++
			root.fn()
		}
		if c.posted == posted {
			c.fused++
		}
	}
	return done
}

// bound lowers the running shard's exclusive horizon to an event at time at
// on another shard: the runner stops before t if that shard wins the tie
// (the lower index, XORed with tie), else after its own events at t.
func (c *Cluster) bound(shard int, at Time) {
	if at < c.horizon {
		c.horizon = at
		if shard^c.tie > c.run^c.tie {
			c.horizon++
		}
	}
}

// ReverseTies reverses both tie rules of e's cluster before anything is
// scheduled: the highest shard wins a cross-shard tie, and same-instant
// events run newest first. A figure that moves under it reads a tie.
func (e *Engine) ReverseTies() {
	if e.Pending() != 0 {
		panic("sim: ReverseTies with events pending")
	}
	e.cluster.tie = -1
}

// Run executes events until none remain anywhere.
func (c *Cluster) Run() { c.runLoop(timeMax, ^uint64(0)) }

// Step executes the single globally earliest pending event: runLoop with a
// budget of one. Setup code (RunReady) uses it; same timeline as Run.
func (c *Cluster) Step() bool { return c.runLoop(timeMax, 1) == 1 }

// RunUntil executes every event with timestamp <= t, then advances all
// shard clocks to exactly t.
func (c *Cluster) RunUntil(t Time) {
	limit := timeMax // exclusive; t+1 would wrap at the top of the range
	if t < timeMax {
		limit = t + 1
	}
	c.runLoop(limit, ^uint64(0))
	for i := range c.shards {
		c.shards[i].now = max(c.shards[i].now, t)
	}
}

// RunCapped runs until the cluster drains or maxEvents events have run,
// reporting whether it drained — a livelock guard, exact like
// Engine.RunCapped.
func (c *Cluster) RunCapped(maxEvents uint64) bool {
	c.runLoop(timeMax, maxEvents)
	return c.Pending() == 0
}

// Pending sums scheduled-but-unexecuted events across all shards.
func (c *Cluster) Pending() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].heap)
	}
	return n
}

// Processed sums executed events across all shards.
func (c *Cluster) Processed() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].processed
	}
	return n
}

// Post queues fn(arg) to run on dst — another shard; a shard reaches itself
// with After — after delay: the whole cross-shard mechanism. pri is ignored
// (PriData). delay must be at least the declared (src,dst) edge latency —
// the cluster lookahead when no edges are declared — so a hand-off carries
// its physical latency. Posting is allocation-free in steady state: the
// post rides a recycled postSlot, fn should be a long-lived func value, and
// arg a pointer (pointer-to-interface conversions do not allocate).
//
//kite:hotpath
func (e *Engine) Post(dst *Engine, delay Time, pri uint8, fn func(any), arg any) {
	c := e.cluster
	if dst.cluster != c {
		panic("sim: Post requires both engines in one cluster")
	}
	if dst == e {
		panic("sim: post to own shard; use After")
	}
	min := c.lookahead
	if c.edge != nil {
		min = c.edge[e.shard*len(c.shards)+dst.shard]
		if min == timeMax {
			panic(fmt.Sprintf("sim: post from shard %d to shard %d without a declared edge", e.shard, dst.shard))
		}
	}
	if delay < min {
		panic(fmt.Sprintf("sim: post delay %v below shard %d→%d minimum %v", delay, e.shard, dst.shard, min))
	}
	c.posted++
	var s *postSlot
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		s = &postSlot{c: c} //kite:alloc-ok one slot per post in flight; a fired slot is reused
		s.fire = s.run
	}
	s.fn, s.arg = fn, arg
	dst.push(e.now+delay, s.fire)
}

// ProcessedLocal returns the events executed by this engine alone — the
// per-shard view of Processed, which reports the whole cluster.
func (e *Engine) ProcessedLocal() uint64 { return e.processed }
