// Package framepool provides a deterministic free-list pool of fixed-capacity
// frame buffers with explicit reference counting.
//
// Every simulation owns exactly one Pool, created alongside its core.System.
// A Buf is obtained with Get, handed between pipeline stages under the
// ownership rules documented in DESIGN.md §7 (one reference transfers at
// every hand-off, including failure paths), and returned with Release. The
// pool keeps strict leak accounting: Outstanding() must be zero at
// simulation teardown, and tests assert exactly that.
//
// sync.Pool was deliberately rejected: it is per-P, drains on GC, and hands
// buffers back in a scheduler-dependent order, so two runs of the same
// experiment could observe different buffer identities. This pool is a plain
// LIFO slice owned by a single simulation goroutine, which keeps kitebench
// output byte-identical for any -parallel worker count.
package framepool

import (
	"kite/internal/metrics"
	"kite/internal/sim"
)

const (
	// Headroom is the spare capacity before the payload start, sized so a
	// transport payload can have Ethernet+IPv4+L4 headers prepended without
	// moving bytes (14+20+20 = 54, rounded up).
	Headroom = 64
	// MaxFrame is the largest frame the pipeline carries: one memory page,
	// matching netfront's "frame fits in a grant page" limit.
	MaxFrame = 4096
)

// Buf is a pooled frame buffer. The live payload is data[off:end]; Headroom
// bytes of prepend space precede off after a Reset. Buf is not safe for
// concurrent use — like everything else in a simulation, it is owned by the
// simulation's single goroutine.
type Buf struct {
	arena *Arena // the free list the buffer returns to, for life
	// stageNext is the intrusive link while parked on a remote-release
	// stage: written by the releasing shard (stageRemote) and unspliced by
	// the barrier-side flush.
	stageNext *Buf
	// next links the buffer on a Chain while a single owner holds it in
	// transit; nil whenever the buffer is on none. At is that owner's stamp:
	// the virtual time the frame takes effect at the far end. The pool reads
	// neither.
	next *Buf
	At   sim.Time
	off  int
	end  int
	refs int
	data [Headroom + MaxFrame]byte
}

// Chain is an intrusive FIFO of buffers in transit, one reference per link,
// in hand-off order. A burst of frames crosses a shard boundary as a chain —
// Take detaches it, its head rides the post, Splice lands it — so the burst
// travels as its own frames: no carrier object to fill, post back and
// recycle, and a burst of one is just that frame. Like a Buf, a Chain
// belongs to one shard at a time.
type Chain struct{ head, tail *Buf }

// Push links b at the tail, taking over the caller's reference. b must not
// be on a chain already: linking it twice would fold the chain onto itself.
//
//kite:hotpath
func (c *Chain) Push(b *Buf) {
	if c.tail == nil {
		c.head = b
	} else {
		c.tail.next = b
	}
	c.tail = b
}

// Head returns the oldest buffer without unlinking it, nil when empty.
func (c *Chain) Head() *Buf { return c.head }

// Pop unlinks and returns the oldest buffer (with its reference), nil when
// empty.
//
//kite:hotpath
func (c *Chain) Pop() *Buf {
	b := c.head
	if b == nil {
		return nil
	}
	if c.head, b.next = b.next, nil; c.head == nil {
		c.tail = nil
	}
	return b
}

// Take empties the chain and returns its head with every link intact — the
// form in which a chain crosses a shard boundary as one post argument — or
// nil when there is nothing to send.
func (c *Chain) Take() *Buf {
	head := c.head
	c.head, c.tail = nil, nil
	return head
}

// Splice appends a chain detached by Take (or a single unlinked buffer)
// behind whatever c already holds.
func (c *Chain) Splice(head *Buf) {
	c.Push(head)
	for c.tail.next != nil {
		c.tail = c.tail.next
	}
}

// Bytes returns the live payload window.
func (b *Buf) Bytes() []byte { return b.data[b.off:b.end] }

// Len returns the payload length.
func (b *Buf) Len() int { return b.end - b.off }

// Reset empties the payload and restores full headroom.
func (b *Buf) Reset() {
	b.off = Headroom
	b.end = Headroom
}

// Extend grows the payload by n bytes at the tail and returns the newly
// exposed window for the caller to fill.
func (b *Buf) Extend(n int) []byte {
	if b.end+n > len(b.data) {
		panic("framepool: Extend past buffer capacity")
	}
	w := b.data[b.end : b.end+n]
	b.end += n
	return w
}

// Prepend grows the payload by n bytes at the head (consuming headroom) and
// returns the newly exposed window for the caller to fill.
func (b *Buf) Prepend(n int) []byte {
	if b.off-n < 0 {
		panic("framepool: Prepend past buffer headroom")
	}
	b.off -= n
	return b.data[b.off : b.off+n]
}

// Trim shortens the payload to length n (n must not exceed Len).
func (b *Buf) Trim(n int) {
	if n > b.Len() {
		panic("framepool: Trim beyond payload")
	}
	b.end = b.off + n
}

// Refs returns the current reference count. Owners that mutate a frame in
// place (e.g. NAT header rewriting) must check for sharing first: a flooded
// frame carries one reference per egress port over the same bytes.
func (b *Buf) Refs() int { return b.refs }

// Retain adds a reference and returns b for chaining. Each extra reference
// requires its own Release.
//
//kite:hotpath
func (b *Buf) Retain() *Buf {
	b.refs++
	return b
}

// Release drops one reference; at zero the buffer returns to its pool.
// Releasing below zero panics — it means an ownership rule was violated.
// In a sharded simulation, use ReleaseOn wherever the last reference may be
// dropped on a shard other than the free list's home.
//
//kite:hotpath
func (b *Buf) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic("framepool: double release")
	}
	b.recycle()
}

// ReleaseOn drops one reference from code running on shard engine local.
// If the final reference dies away from the free list's home shard, the
// buffer parks on the releasing shard's stage for that free list and rides
// home in the stage's single cross-shard release post — the barrier recycles
// every buffer a shard freed during the window in one merge visit instead of
// one post per buffer. On the one goroutine a simulation runs on, recycling
// in place would be just as safe; the stage stays because dropping it drops
// the release posts from the cluster's post count, which the committed sim
// digests pin. So a free list is still only touched by its home shard or the
// barrier.
//
//kite:hotpath
func (b *Buf) ReleaseOn(local *sim.Engine) {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic("framepool: double release")
	}
	a := b.arena
	if a.home == nil || a.home == local {
		b.recycle()
		return
	}
	stageRemote(local, b)
}

// releaseStage batches one releasing shard's remote frees for one free list
// into a single cross-shard post per window. Staged buffers chain through
// their intrusive stageNext links, so steady-state batching allocates
// nothing; the stage's flush runs as a PriRelease at the barrier of the
// window that staged it, draining the chain into the home free list in one
// visit.
type releaseStage struct {
	head  *Buf
	armed bool
	flush func(any)
}

// newStages sizes the per-releasing-shard stage table for a free list homed
// on a cluster shard (nil when the home engine is standalone).
func newStages(home *sim.Engine) []releaseStage {
	c := home.Cluster()
	if c == nil {
		return nil
	}
	return make([]releaseStage, c.Shards())
}

// stageRemote parks b on the releasing shard's stage and arms the stage's
// once-per-window flush post. Linking b onto the magazine chain consumes
// the caller's reference — staging the same buffer twice would fold the
// chain onto itself; the one call site sits behind Release's refcount
// check, which panics on a second release.
//
//kite:hotpath
func stageRemote(local *sim.Engine, b *Buf) {
	a := b.arena
	st := &a.stages[local.ShardID()]
	b.stageNext = st.head
	st.head = b
	if st.armed {
		return
	}
	st.armed = true
	if st.flush == nil {
		st.flush = func(any) { //kite:alloc-ok one closure per (free list, releasing shard), cached forever
			// Every buffer on one stage belongs to the same free list, so
			// the chain splices with one counter update per batch — the bulk
			// path must stay cheaper than the per-frame recycle an unsharded
			// run pays inline.
			var n int
			for b := st.head; b != nil; {
				next := b.stageNext
				b.stageNext = nil
				a.free = append(a.free, b)
				n++
				b = next
			}
			st.head = nil
			st.armed = false
			a.parent.outstanding -= n
			a.parent.recycled += uint64(n)
			metrics.FramePoolRecycles.Add(uint64(n))
		}
	}
	local.Post(a.home, local.Cluster().Lookahead(), sim.PriRelease, st.flush, nil)
}

// recycle parks the buffer on its free list. It must run on the list's
// home shard (or in an unsharded simulation).
func (b *Buf) recycle() {
	a := b.arena
	a.free = append(a.free, b)
	a.parent.outstanding--
	a.parent.recycled++
	metrics.FramePoolRecycles.Add(1)
}

// Pool is a per-simulation free list of Bufs: the counters every arena of
// the simulation reports to, and a root arena of its own holding the shared
// free list. A free list belongs to one shard (its home), which ReleaseOn
// enforces by routing remote releases back.
type Pool struct {
	root        Arena
	outstanding int
	gets        uint64
	recycled    uint64
}

// New returns an empty pool; buffers are allocated lazily on first Get and
// recycled forever after.
func New() *Pool {
	p := &Pool{}
	p.root.parent = p
	return p
}

// Get returns an empty Buf from the shared free list (see Arena.Get).
//
//kite:hotpath
func (p *Pool) Get() *Buf { return p.root.Get() }

// SetHome pins the pool's shared free list to a shard engine (see
// Arena.SetHome).
func (p *Pool) SetHome(e *sim.Engine) { p.root.SetHome(e) }

// Prealloc parks n fresh buffers on the shared free list up front (see
// Arena.Prealloc).
func (p *Pool) Prealloc(n int) { p.root.Prealloc(n) }

// From returns a Buf whose payload is a copy of pkt. Convenience for tests
// and cold paths (ARP, control traffic).
//
//kite:hotpath
func (p *Pool) From(pkt []byte) *Buf {
	b := p.Get()
	copy(b.Extend(len(pkt)), pkt)
	return b
}

// Outstanding returns the number of buffers currently held by callers. It
// must be zero at simulation teardown.
func (p *Pool) Outstanding() int { return p.outstanding }

// Gets returns the total number of buffers handed out.
func (p *Pool) Gets() uint64 { return p.gets }

// Recycled returns the total number of buffers returned to the free list.
func (p *Pool) Recycled() uint64 { return p.recycled }

// Arena is a per-queue partition of a Pool: it has its own LIFO free list,
// so multi-queue workers recycling frames never touch a shared list, but
// every counter (gets, recycles, outstanding leak accounting) still lands
// on the parent pool. A buffer first obtained from an Arena belongs to that
// arena for life — Release returns it there no matter which pipeline stage
// drops the last reference — so queue working sets stay disjoint and
// per-queue recycling order stays deterministic regardless of how queues
// interleave.
type Arena struct {
	parent *Pool
	home   *sim.Engine    // shard owning this arena's free list; nil = unpinned
	stages []releaseStage // per-releasing-shard remote free batches
	free   []*Buf
}

// NewArena returns an empty partition of p. Arenas allocate fresh buffers
// rather than stealing from the parent's shared free list, so creating one
// never perturbs buffer identities elsewhere in the simulation.
func (p *Pool) NewArena() *Arena { return &Arena{parent: p} }

// Get returns an empty Buf (full headroom, zero length) holding one
// reference owned by the caller, drawn from (and destined to return to)
// this arena.
//
//kite:hotpath
func (a *Arena) Get() *Buf {
	var b *Buf
	if n := len(a.free); n > 0 {
		b = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		b = &Buf{arena: a} //kite:alloc-ok pool growth on free-list miss; steady state recycles
	}
	b.refs = 1
	b.Reset()
	a.parent.gets++
	a.parent.outstanding++
	metrics.FramePoolGets.Add(1)
	return b
}

// SetHome pins this arena's free list to a shard engine. Buffers whose last
// reference dies elsewhere are staged and posted back rather than recycled
// in place.
func (a *Arena) SetHome(e *sim.Engine) {
	a.home = e
	a.stages = newStages(e)
}

// Prealloc parks n fresh buffers on this arena's free list up front.
// Sharded simulations stage remote releases and post them home a lookahead
// window later, so the free list can be transiently short of the true
// working set; pre-sizing absorbs those window-crossing misses instead of
// letting the data path allocate through them. Preallocated buffers count
// toward nothing until first handed out.
func (a *Arena) Prealloc(n int) {
	for i := 0; i < n; i++ {
		a.free = append(a.free, &Buf{arena: a})
	}
}

// Free returns the number of buffers parked in this arena's free list.
func (a *Arena) Free() int { return len(a.free) }
