package sim

// This file is the sharded deterministic event core: a Cluster partitions
// one simulation into per-shard Engines (one heap and one inbox each) and
// executes them in one exact global order — the cluster's earliest pending
// event next, ties going to the lowest shard, and within a shard the heap
// before the inbox:
//
//   - Every cross-shard interaction travels as a *post* with an explicit
//     delay >= the cluster lookahead. Physical latencies (NIC wire +
//     propagation delay, event-channel upcall latency, NVMe command fetch)
//     give every hand-off a natural lower bound, so posts model real
//     hand-off delays rather than artificial slack; the scheduler does not
//     need the bound, Post checks it.
//   - A post lands where it is going: Post puts the record straight into the
//     destination shard's inbox, at its place in the total (timestamp,
//     priority, source shard, source sequence) order. The key is unique, so
//     an inbox's order depends on nothing but the posts themselves. Nothing
//     is staged and no barrier merges: one goroutine runs the whole cluster,
//     so the destination is never running while a post arrives.
//   - One loop (runLoop) runs the shard holding the earliest event until
//     another shard's next event comes first, so shard-local stretches run
//     as one batch on a heap-only inner loop, and Step is the same loop
//     with a budget of one. A shard alone with pending events runs to the
//     end of the run (DESIGN.md §12.4).
//   - Declared edges (DeclareEdge, DeclareLink) are a check, not an
//     optimisation: once a cluster declares any, Post panics on an
//     undeclared pair and on a delay under the pair's declared minimum.
//     The scheduler does not read them (DESIGN.md §12.6).
//
// A whole Cluster runs on the one goroutine that drives it, like a
// standalone Engine: spreading shards over cores measured slower
// than running them in turn on every host tried, because a stage-partitioned
// pipeline drags each frame's working set across cores once per hand-off
// (DESIGN.md §12.7 has the numbers and what would reopen the question).
// What sharding buys is the model: every shard keeps its own clock and a
// heap a fraction of the size, and hand-offs carry their physical latency.
//
// Each shard also owns a partitioned RNG (splitmix-derived from the cluster
// seed and the shard index), so stochastic elements bound to a shard draw
// from a stream that is independent of how other shards interleave.

import "fmt"

// PriData is the equal-timestamp rank every post in the tree carries (lower
// runs first). The rank stays in Post's signature and in the inbox order's
// key because benchmark/ — frozen — passes it (ROADMAP, Housekeeping).
const PriData uint8 = 100

// postRec is one cross-shard event. Records live in the destination's inbox
// slice, whose spare capacity is recycled, so steady-state posting does not
// allocate.
type postRec struct {
	at  Time
	pri uint8
	src uint16 // source shard (tie-break)
	seq uint64 // per-source post sequence (final tie-break)
	fn  func(any)
	arg any
}

// before is the deterministic inbox order: (timestamp, priority, source
// shard, source sequence). The key is unique — two posts can never compare
// equal — so the order is total and independent of arrival order.
func (p *postRec) before(o *postRec) bool {
	if p.at != o.at {
		return p.at < o.at
	}
	if p.pri != o.pri {
		return p.pri < o.pri
	}
	if p.src != o.src {
		return p.src < o.src
	}
	return p.seq < o.seq
}

// timeMax is the "no bound" sentinel: an undeclared edge's minimum and the
// limit of a run that goes until nothing is pending.
const timeMax = Time(1<<63 - 1)

// Cluster coordinates a set of shard Engines in one global event order.
// Shard 0 is the "home" shard by convention (setup, devices, and anything
// not pinned elsewhere); calling Run/Step/RunUntil on any shard engine
// drives the whole cluster.
type Cluster struct {
	shards    []*Engine
	rngs      []*Rand
	lookahead Time

	// Declared edges (flattened n x n, src-major): the minimum delay a post
	// from src to dst may carry, timeMax for a pair nobody declared. Only
	// Post reads it, to refuse what the topology said cannot happen. It stays
	// nil until the first DeclareEdge; until then every pair may post at the
	// cluster lookahead.
	edge []Time

	// horizon bounds the running shard, exclusive: runLoop sets it from the
	// other shards' next events, and Post lowers it.
	horizon Time

	windows uint64 // uninterrupted runs of one shard
	fused   uint64 // runs in which the shard posted nothing
	posted  uint64 // cross-shard posts made
}

// NewCluster builds n shard engines sharing one virtual clock, with the
// given conservative lookahead (the minimum cross-shard post delay) and a
// seed for the partitioned per-shard RNGs.
func NewCluster(n int, lookahead Time, seed uint64) *Cluster {
	if n < 1 {
		panic("sim: cluster needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{lookahead: lookahead}
	for i := 0; i < n; i++ {
		e := NewEngine()
		e.cluster = c
		e.shard = i
		c.shards = append(c.shards, e)
		// Partitioned RNG: each shard's stream is derived from (seed, shard)
		// through the splitmix increment, so streams are decorrelated and
		// stable no matter how many shards run or in what order.
		c.rngs = append(c.rngs, NewRand(seed^(uint64(i+1)*0x9e3779b97f4a7c15)))
	}
	return c
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's engine.
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Rand returns shard i's partitioned RNG.
func (c *Cluster) Rand(i int) *Rand { return c.rngs[i] }

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
// of running. Declaring the same pair again keeps the minimum.
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

// DeclareLink declares a bidirectional edge between the shards of a and b
// with the given minimum hand-off latency. It is a no-op when the engines
// share a shard (or are not clustered), so pinning code can declare its
// latencies unconditionally.
func DeclareLink(a, b *Engine, min Time) {
	c := a.cluster
	if c == nil || b.cluster != c || a.shard == b.shard {
		return
	}
	c.DeclareEdge(a.shard, b.shard, min)
	c.DeclareEdge(b.shard, a.shard, min)
}

// SetWorkers does nothing: a cluster runs on the goroutine that drives it.
// It remains only because benchmark/ — frozen while this was removed —
// still calls it; no other caller exists, and the method goes when those
// calls do (ROADMAP, Housekeeping).
func (c *Cluster) SetWorkers(int) {}

// runLoop is the one scheduler behind Run, RunUntil, RunCapped and Step: it
// executes up to budget events timestamped before limit, in the global order,
// and returns how many ran. Each pass picks the shard holding the earliest
// pending event, ties going to the lowest index, and runs it up to an
// exclusive horizon set by the runner-up: an event at t on a lower shard
// bounds it at t, on a higher shard at t+1, so one integer carries the tie
// rule. While it runs, only its own posts can give another shard an earlier
// event, and Post lowers the horizon when one does. A shard alone with
// pending events runs to limit.
//
//kite:hotpath
func (c *Cluster) runLoop(limit Time, budget uint64) uint64 {
	var done uint64
	for done < budget {
		run, next := -1, -1
		var rt, nt Time
		for i, s := range c.shards {
			t, ok := s.nextLocal()
			switch {
			case !ok:
			case run < 0 || t < rt:
				next, nt = run, rt
				run, rt = i, t
			case next < 0 || t < nt:
				next, nt = i, t
			}
		}
		if run < 0 || rt >= limit {
			break
		}
		c.horizon = limit
		if next >= 0 && nt < limit {
			c.horizon = nt
			if next > run {
				c.horizon++
			}
		}
		c.windows++
		posted := c.posted
		s := c.shards[run]
		// No shard posts to itself, so the inbox cannot grow while its shard
		// runs: once it is drained the loop is a heap-only one, as tight as
		// the standalone engine's.
		for done < budget && s.inboxHead < len(s.inbox) && s.stepLocal(c.horizon) {
			done++
		}
		for done < budget && len(s.heap) > 0 && s.heap[0].at < c.horizon {
			s.stepHeap()
			done++
		}
		if c.posted == posted {
			c.fused++
		}
	}
	return done
}

// Run executes events until none remain anywhere.
func (c *Cluster) Run() {
	c.runLoop(timeMax, ^uint64(0))
}

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
	for _, s := range c.shards {
		if s.now < t {
			s.now = t
		}
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
	for _, s := range c.shards {
		n += len(s.heap) + (len(s.inbox) - s.inboxHead)
	}
	return n
}

// Processed sums executed events across all shards.
func (c *Cluster) Processed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.processed
	}
	return n
}

// Post queues fn(arg) to run on dst — another shard; a shard reaches itself
// with After — after delay, carrying pri as the equal-timestamp rank: the
// whole cross-shard mechanism. delay must be at least the declared (src,dst)
// edge latency — the cluster lookahead when no edges are declared — so a
// hand-off carries its physical latency. Posting is allocation-free in
// steady state: the record is a
// value in a recycled inbox slice, fn should be a long-lived func value,
// and arg a pointer (pointer-to-interface conversions do not allocate).
//
//kite:hotpath
func (e *Engine) Post(dst *Engine, delay Time, pri uint8, fn func(any), arg any) {
	c := e.cluster
	if c == nil || dst.cluster != c {
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
	e.postSeq++
	c.posted++
	p := postRec{at: e.now + delay, pri: pri, src: uint16(e.shard), seq: e.postSeq, fn: fn, arg: arg}
	// e is the running shard: dst's new event bounds it like any other
	// shard's next event (runLoop's tie rule).
	if p.at < c.horizon {
		c.horizon = p.at
		if dst.shard > e.shard {
			c.horizon++
		}
	}

	// Recycle dst's consumed prefix before growing the inbox. stepLocal
	// zeroed the consumed slots, so a drained inbox resets for free; a long
	// partly consumed prefix is compacted down.
	if dst.inboxHead == len(dst.inbox) {
		dst.inbox = dst.inbox[:0]
		dst.inboxHead = 0
	} else if dst.inboxHead >= 64 {
		n := copy(dst.inbox, dst.inbox[dst.inboxHead:])
		clear(dst.inbox[n:]) // drop fn/arg refs from vacated slots
		dst.inbox = dst.inbox[:n]
		dst.inboxHead = 0
	}
	// Append, then shift back to p's place in the order. A new post almost
	// always matures after everything already queued — a source's clock only
	// moves forward — so the loop rarely runs; it does when a later post
	// carried a shorter delay or another source's clock is behind.
	in := append(dst.inbox, p) //kite:alloc-ok inbox grows to the burst high-water mark, then recycles
	i := len(in) - 1
	for ; i > dst.inboxHead && p.before(&in[i-1]); i-- {
		in[i] = in[i-1]
	}
	in[i] = p
	dst.inbox = in
}

// ProcessedLocal returns the events executed by this engine alone — the
// per-shard view of Processed, which reports the whole cluster.
func (e *Engine) ProcessedLocal() uint64 { return e.processed }

// nextLocal returns the earliest locally pending event time (heap or
// inbox).
func (e *Engine) nextLocal() (Time, bool) {
	hasHeap := len(e.heap) > 0
	hasIn := e.inboxHead < len(e.inbox)
	switch {
	case hasHeap && hasIn:
		ht, it := e.heap[0].at, e.inbox[e.inboxHead].at
		if it < ht {
			return it, true
		}
		return ht, true
	case hasHeap:
		return e.heap[0].at, true
	case hasIn:
		return e.inbox[e.inboxHead].at, true
	}
	return 0, false
}

// stepLocal executes the earliest local event strictly before horizon,
// reporting whether one ran. At an equal timestamp the local heap runs
// before relayed posts: a shard's own causally earlier work precedes
// foreign hand-offs landing at the same instant.
func (e *Engine) stepLocal(horizon Time) bool {
	useHeap := false
	useIn := false
	var at Time
	if len(e.heap) > 0 && e.heap[0].at < horizon {
		useHeap = true
		at = e.heap[0].at
	}
	if e.inboxHead < len(e.inbox) {
		if p := &e.inbox[e.inboxHead]; p.at < horizon && (!useHeap || p.at < at) {
			useIn = true
			useHeap = false
		}
	}
	switch {
	case useHeap:
		e.stepHeap()
	case useIn:
		p := e.inbox[e.inboxHead]
		e.inbox[e.inboxHead] = postRec{} // release fn/arg from the recycled slot
		e.inboxHead++
		e.now = p.at
		e.processed++
		p.fn(p.arg)
	default:
		return false
	}
	return true
}
