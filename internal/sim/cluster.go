package sim

// This file is the sharded deterministic event core: a Cluster partitions
// one simulation into per-shard Engines (one heap each), executes them in
// conservative lookahead windows, and merges cross-shard effects at a
// deterministic barrier. The design is classic conservative DES
// (Chandy-Misra-Bryant specialized to fixed minimum link latencies):
//
//   - Every cross-shard interaction travels as a *post* with an explicit
//     delay >= the declared (src,dst) edge latency (or the cluster-wide
//     lookahead when no edges are declared). Physical latencies (NIC wire +
//     propagation delay, event-channel upcall latency, NVMe command fetch)
//     give each edge a natural lower bound, so posts model real hand-off
//     delays rather than artificial slack.
//   - A window runs every shard independently up to its *own* exclusive
//     horizon: the minimum over all other active shards j of
//     next(j) + dist(j, i), where dist is the min-plus closure of the edge
//     matrix (the cheapest chain of posts that could carry an effect from
//     j to i). Any post created inside the window matures at or beyond the
//     destination's horizon, so shards never observe each other mid-window
//     and running them one after another, in shard order, yields the same
//     per-shard timelines as the global-order replay Step performs.
//   - A shard no active shard can reach (dist == infinity, or nothing else
//     active) runs *free* — no horizon at all — until it stages a post, at
//     which point the destination gains a future event that could boomerang
//     back, so the sprint ends at the next barrier.
//   - At the barrier, outboxes are merged into per-shard inboxes ordered by
//     the total (timestamp, priority, source shard, source sequence) key.
//     Barriers that staged no posts are *fused*: the next window starts
//     immediately with no merge work at all.
//
// A whole Cluster runs on the one goroutine that drives it, like a
// standalone Engine: spreading a window's shards over cores measured slower
// than running them in turn on every host tried, because a stage-partitioned
// pipeline drags each frame's working set across cores once per hand-off
// (DESIGN.md §12.7 has the numbers and what would reopen the question).
// What sharding buys is the model: per-edge lookahead, free sprints and
// fused windows are what make a multi-queue simulation's virtual timeline
// cheap to compute.
//
// Each shard also owns a partitioned RNG (splitmix-derived from the cluster
// seed and the shard index), so stochastic elements bound to a shard draw
// from a stream that is independent of how other shards interleave.

import "fmt"

// PriData is the equal-timestamp merge rank every post in the tree carries
// (lower runs first). The rank stays in Post's signature and in the merge
// key because benchmark/ — frozen — passes it (ROADMAP, Housekeeping).
const PriData uint8 = 100

// postRec is one staged cross-shard event. Records live in outbox/inbox
// slices whose spare capacity is recycled, so steady-state posting does not
// allocate.
type postRec struct {
	at  Time
	pri uint8
	src uint16 // source shard (merge tie-break)
	seq uint64 // per-source post sequence (final tie-break)
	fn  func(any)
	arg any
}

// before is the deterministic merge order: (timestamp, priority, source
// shard, source sequence). The key is unique — two posts can never compare
// equal — so the merged order is total and independent of arrival order.
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

// timeMax is the "no bound" sentinel: an undeclared edge distance and the
// free-sprint horizon.
const timeMax = Time(1<<63 - 1)

// Cluster coordinates a set of shard Engines under conservative lookahead
// windows. Shard 0 is the "home" shard by convention (setup, devices, and
// anything not pinned elsewhere); calling Run/Step/RunUntil on any shard
// engine drives the whole cluster.
type Cluster struct {
	shards    []*Engine
	rngs      []*Rand
	lookahead Time

	// Per-edge lookahead (flattened n x n, src-major). edge holds the
	// declared minimum direct post delay per (src,dst) pair — timeMax for
	// pairs with no declared edge — and dist its min-plus closure: the
	// cheapest chain of posts that can carry an effect from src to dst.
	// Both stay nil until the first DeclareEdge, in which case every pair
	// falls back to the uniform cluster lookahead.
	edge      []Time
	dist      []Time
	edgeDirty bool // closure needs recomputing before the next window

	windows uint64 // execution windows run
	fused   uint64 // windows whose barrier staged nothing (no merge work)
	posted  uint64 // cross-shard posts merged

	// Merge scratch, recycled across barriers: one run header per source
	// shard plus one for the displaced inbox tail, and the buffer that tail
	// moves through.
	runs    [][]postRec
	scratch []postRec

	// Window scratch, recomputed by computeHorizons before each window.
	nexts    []Time // per-shard next local event (timeMax = idle)
	horizons []Time // per-shard exclusive horizon (0 = idle, timeMax = run free)
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
	c := &Cluster{
		lookahead: lookahead,
		nexts:     make([]Time, n),
		horizons:  make([]Time, n),
		runs:      make([][]postRec, 0, n+1),
	}
	for i := 0; i < n; i++ {
		e := NewEngine()
		e.cluster = c
		e.shard = i
		e.outbox = make([][]postRec, n)
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

// Windows returns how many execution windows have run.
func (c *Cluster) Windows() uint64 { return c.windows }

// Fused returns how many of those windows ended in an empty barrier — no
// shard staged a post, so the merge was skipped and the next window fused
// straight on.
func (c *Cluster) Fused() uint64 { return c.fused }

// Posted returns how many cross-shard posts have been merged.
func (c *Cluster) Posted() uint64 { return c.posted }

// DeclareEdge declares that posts from shard src to shard dst always carry
// a delay of at least min (a physical link/device latency, never below the
// cluster lookahead). The first declaration flips the cluster into
// edge-matrix mode: pairs that are never declared have *no* edge — posting
// on one panics — which is exactly what lets unrelated shards run past each
// other. Effects can still chain through intermediate shards, so horizons
// use the min-plus closure of the declared matrix, recomputed lazily before
// the next window. Declaring the same pair again keeps the minimum.
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
		c.edgeDirty = true
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

// EdgeDist returns the effective minimum latency for effects travelling
// from shard src to shard dst (the closure over declared edges), or the
// uniform lookahead when no edges are declared. timeMax means unreachable.
func (c *Cluster) EdgeDist(src, dst int) Time {
	if c.edge == nil {
		return c.lookahead
	}
	if c.edgeDirty {
		c.refreshEdges()
	}
	return c.dist[src*len(c.shards)+dst]
}

// refreshEdges recomputes the min-plus closure of the edge matrix
// (Floyd-Warshall; shard counts are single digits in practice).
// Self-distances come out as the shortest cycle through the shard and are
// never consulted — a shard's horizon comes only from *other* shards.
//
//kite:coldpath runs only after DeclareEdge dirtied the matrix, i.e. during topology setup
func (c *Cluster) refreshEdges() {
	n := len(c.shards)
	if c.dist == nil {
		c.dist = make([]Time, n*n)
	}
	copy(c.dist, c.edge)
	for k := 0; k < n; k++ {
		krow := c.dist[k*n : k*n+n]
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			ik := c.dist[i*n+k]
			if ik == timeMax {
				continue
			}
			row := c.dist[i*n : i*n+n]
			for j := 0; j < n; j++ {
				if j == k || krow[j] == timeMax {
					continue
				}
				if d := ik + krow[j]; d < row[j] {
					row[j] = d
				}
			}
		}
	}
	c.edgeDirty = false
}

// SetWorkers does nothing: a cluster runs on the goroutine that drives it.
// It remains only because benchmark/ — frozen while this was removed —
// still calls it; no other caller exists, and the method goes when those
// calls do (ROADMAP, Housekeeping).
func (c *Cluster) SetWorkers(int) {}

// computeHorizons snapshots every shard's next local event and derives the
// per-shard horizons for the next window: shard i may run to the minimum
// over other active shards j of next(j) + dist(j, i), exclusive, capped at
// limit. Shards no active shard can reach get the free-sprint marker
// (timeMax); idle shards get 0. It returns the globally earliest event time
// and the number of active shards. The horizons are a pure function of the
// pre-window event state.
func (c *Cluster) computeHorizons(limit Time) (Time, int) {
	if c.edgeDirty {
		c.refreshEdges()
	}
	n := len(c.shards)
	earliest := timeMax
	active := 0
	for i, s := range c.shards {
		if t, ok := s.nextLocal(); ok {
			c.nexts[i] = t
			active++
			if t < earliest {
				earliest = t
			}
		} else {
			c.nexts[i] = timeMax
		}
	}
	if active == 0 || earliest >= limit {
		return earliest, active
	}
	for i := range c.shards {
		if c.nexts[i] == timeMax {
			c.horizons[i] = 0
			continue
		}
		h := timeMax
		if c.dist == nil {
			// Uniform lookahead: every other active shard bounds i equally.
			for j := 0; j < n; j++ {
				if j == i || c.nexts[j] == timeMax {
					continue
				}
				if v := c.nexts[j] + c.lookahead; v < h {
					h = v
				}
			}
		} else {
			for j := 0; j < n; j++ {
				if j == i || c.nexts[j] == timeMax {
					continue
				}
				d := c.dist[j*n+i]
				if d == timeMax {
					continue
				}
				if v := c.nexts[j] + d; v < h {
					h = v
				}
			}
		}
		if h != timeMax && h > limit {
			h = limit
		}
		c.horizons[i] = h
	}
	return earliest, active
}

// runWindow executes one window: every shard, in shard order, runs to its
// own horizon (or sprints free when nothing active can reach it) with the
// whole of budget to itself. It returns the events executed.
func (c *Cluster) runWindow(limit Time, budget uint64) uint64 {
	var done uint64
	for i, s := range c.shards {
		switch h := c.horizons[i]; {
		case h == 0:
		case h == timeMax:
			done += s.runFree(limit, budget)
		default:
			done += s.runTo(h, budget)
		}
	}
	return done
}

// runLoop is the window engine behind Run/RunUntil/RunCapped: compute
// horizons, run the window, merge if anything was staged (fuse the barrier
// if not), repeat until the cluster drains past limit or the budget is
// spent. budget caps the events executed approximately: each shard sees the
// full remaining budget within a window.
//
//kite:hotpath
func (c *Cluster) runLoop(limit Time, budget uint64) uint64 {
	var total uint64
	for total < budget {
		earliest, active := c.computeHorizons(limit)
		if active == 0 || earliest >= limit {
			break
		}
		c.windows++
		done := c.runWindow(limit, budget-total)
		total += done
		if c.staged() {
			c.merge()
		} else {
			c.fused++
			if done == 0 {
				// The earliest shard's horizon always lies beyond its next
				// event, so an empty window means the horizon math broke.
				panic("sim: cluster window made no progress")
			}
		}
	}
	return total
}

// staged reports whether any shard has posts waiting for the barrier.
func (c *Cluster) staged() bool {
	for _, s := range c.shards {
		if s.stagedPosts != 0 {
			return true
		}
	}
	return false
}

// merge is the deterministic barrier: every outbox drains into its
// destination shard's inbox in the total (timestamp, priority, source
// shard, source sequence) order. Keys are unique, so the resulting order
// depends on nothing but the posts themselves. Only called when at least one
// shard staged posts; source shards that staged nothing are skipped
// wholesale.
//
// Per destination the inbound posts form one sorted run per source: a
// shard's clock only moves forward, so its outbox is out of order only
// where two posts carried different delays, and sortRun fixes that in
// place. The runs — plus whatever part of the unconsumed inbox tail they
// interleave with — are then k-way merged straight into the inbox: linear
// in the records moved, where one insertion sort over the concatenated tail
// went quadratic as soon as several sources interleaved. The merged order
// is the sorted order because the key is total.
func (c *Cluster) merge() {
	for di, dst := range c.shards {
		runs := c.runs[:0]
		for _, src := range c.shards {
			if src.stagedPosts == 0 {
				continue
			}
			ob := src.outbox[di]
			if len(ob) == 0 {
				continue
			}
			sortRun(ob)
			runs = append(runs, ob) //kite:alloc-ok one header per source shard plus the inbox tail: capacity fixed at NewCluster
			c.posted += uint64(len(ob))
		}
		if len(runs) > 0 {
			c.mergeRuns(dst, runs)
		}
		for _, src := range c.shards {
			if ob := src.outbox[di]; len(ob) != 0 {
				clear(ob)
				src.outbox[di] = ob[:0]
			}
		}
	}
	for _, s := range c.shards {
		s.stagedPosts = 0
	}
}

// mergeRuns merges the sorted runs (at least one, all non-empty) into dst's
// inbox, keeping the inbox sorted from inboxHead on.
func (c *Cluster) mergeRuns(dst *Engine, runs [][]postRec) {
	// Recycle the consumed prefix. Consumed slots were already zeroed by
	// stepLocal, so a fully drained inbox resets for free; a long
	// partially-consumed prefix is compacted down.
	if dst.inboxHead == len(dst.inbox) {
		dst.inbox = dst.inbox[:0]
		dst.inboxHead = 0
	} else if dst.inboxHead >= 64 {
		n := copy(dst.inbox, dst.inbox[dst.inboxHead:])
		clear(dst.inbox[n:]) // drop fn/arg refs from vacated slots
		dst.inbox = dst.inbox[:n]
		dst.inboxHead = 0
	}
	in := dst.inbox
	// Pending posts that sort after the earliest new one have to be
	// interleaved: they move to the scratch buffer and join the merge as one
	// more run. Usually there are none — new posts mature later than
	// everything already queued.
	first := &runs[0][0]
	for i := 1; i < len(runs); i++ {
		if runs[i][0].before(first) {
			first = &runs[i][0]
		}
	}
	tail := c.scratch[:0]
	if n := len(in); n > dst.inboxHead && first.before(&in[n-1]) {
		lo, hi := dst.inboxHead, n-1 // in[hi] sorts after first; find the first such slot
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if first.before(&in[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		tail = append(tail, in[lo:]...) //kite:alloc-ok scratch grows to the inbox high-water mark, then recycles
		in = in[:lo]
		runs = append(runs, tail) //kite:alloc-ok capacity fixed at NewCluster (shards + 1)
	}
	for k := len(runs); k > 1; {
		best := 0
		for i := 1; i < k; i++ {
			if runs[i][0].before(&runs[best][0]) {
				best = i
			}
		}
		in = append(in, runs[best][0]) //kite:alloc-ok inbox grows to the burst high-water mark, then recycles
		if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
			k--
			runs[best] = runs[k]
		}
	}
	dst.inbox = append(in, runs[0]...) //kite:alloc-ok inbox grows to the burst high-water mark, then recycles
	clear(tail)
	c.scratch = tail[:0]
}

// sortRun is an allocation-free insertion sort for one source shard's
// posts to one destination: appended in clock order, so a record is out of
// place only when a later post carried a shorter delay, and moves a few
// slots at most. Across sources that claim does not hold; mergeRuns
// interleaves those.
func sortRun(ps []postRec) {
	for i := 1; i < len(ps); i++ {
		if !ps[i].before(&ps[i-1]) {
			continue
		}
		p := ps[i]
		j := i - 1
		for j >= 0 && p.before(&ps[j]) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// Run executes windows until no events remain anywhere.
func (c *Cluster) Run() {
	c.runLoop(timeMax, ^uint64(0))
}

// Step executes the single globally earliest pending event and merges the
// barrier immediately — the window protocol with a one-event window. Setup
// code (RunReady) uses this; it produces the same timeline as Run.
func (c *Cluster) Step() bool {
	var best *Engine
	var bt Time
	for _, s := range c.shards {
		if t, ok := s.nextLocal(); ok && (best == nil || t < bt) {
			best, bt = s, t
		}
	}
	if best == nil {
		return false
	}
	best.stepLocal(bt + 1)
	if c.staged() {
		c.merge()
	}
	return true
}

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

// RunCapped runs until the cluster drains or ~maxEvents have been executed,
// reporting whether it drained. Like Engine.RunCapped it is a livelock
// guard, not a precise budget: windows may overshoot slightly.
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

// Post stages fn(arg) to run on dst after delay, carrying pri as the
// equal-timestamp merge rank. delay must be at least the declared (src,dst)
// edge latency — the cluster lookahead when no edges are declared — and
// that bound is exactly what lets shards run a window without peeking at
// each other. Posting is allocation-free in steady state: the record is a
// value in a recycled outbox slice, fn should be a long-lived func value,
// and arg a pointer (pointer-to-interface conversions do not allocate).
//
//kite:hotpath
func (e *Engine) Post(dst *Engine, delay Time, pri uint8, fn func(any), arg any) {
	c := e.cluster
	if c == nil || dst.cluster != c {
		panic("sim: Post requires both engines in one cluster")
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
	e.stagedPosts++
	e.outbox[dst.shard] = append(e.outbox[dst.shard], //kite:alloc-ok outbox grows to the burst high-water mark, then recycles
		postRec{at: e.now + delay, pri: pri, src: uint16(e.shard), seq: e.postSeq, fn: fn, arg: arg})
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

// runTo executes local events strictly before horizon, up to budget, and
// returns how many ran. Once the inbox is drained — almost immediately, an
// inbox only ever holds last window's hand-offs — the loop drops into a
// heap-only fast path as tight as the standalone engine's, so shard
// execution pays the merge bookkeeping only while merged posts remain.
func (e *Engine) runTo(horizon Time, budget uint64) uint64 {
	var done uint64
	for e.inboxHead < len(e.inbox) {
		if done >= budget || !e.stepLocal(horizon) {
			return done
		}
		done++
	}
	for done < budget && len(e.heap) > 0 && e.heap[0].at < horizon {
		e.stepHeap()
		done++
	}
	return done
}

// runFree executes local events with timestamps strictly before limit, up
// to budget, stopping after any event that stages a post. Only shards
// with the free-sprint horizon run it: the no-peeking guarantee shards
// normally get from the lookahead horizon instead comes from no *active*
// shard having a post path to this one — and the sprint ends at the first
// post because the destination then holds a future event that could chain
// back.
func (e *Engine) runFree(limit Time, budget uint64) uint64 {
	var done uint64
	seq := e.postSeq
	for e.inboxHead < len(e.inbox) {
		if done >= budget || e.postSeq != seq || !e.stepLocal(limit) {
			return done
		}
		done++
	}
	for done < budget && e.postSeq == seq && len(e.heap) > 0 && e.heap[0].at < limit {
		e.stepHeap()
		done++
	}
	return done
}
