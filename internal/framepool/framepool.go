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

import "kite/internal/sim"

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
	pool *Pool // the free list the buffer returns to, for life
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

// Release drops one reference; at zero the buffer goes back on its pool's
// free list, there and then, on whichever shard the last reference died: a
// simulation runs on one goroutine, so the very next Get may hand it out
// again. Releasing below zero panics — it means an ownership rule was
// violated.
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
	p := b.pool
	p.free = append(p.free, b)
	p.outstanding--
	p.recycled++
}

// Pool is a per-simulation LIFO free list of Bufs and its leak counters.
type Pool struct {
	free        []*Buf
	outstanding int
	gets        uint64
	recycled    uint64
}

// New returns an empty pool; buffers are allocated lazily on first Get and
// recycled forever after.
func New() *Pool { return &Pool{} }

// Get returns an empty Buf (full headroom, zero length) holding one
// reference owned by the caller.
//
//kite:hotpath
func (p *Pool) Get() *Buf {
	var b *Buf
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		b = &Buf{pool: p} //kite:alloc-ok pool growth on free-list miss; steady state recycles
	}
	b.refs = 1
	b.Reset()
	p.gets++
	p.outstanding++
	return b
}

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

// Shims for benchmark/, which was frozen while the release stages, free-list
// homes and pre-sizing were removed: a pool is one free list that Release
// fills wherever it is called. Nothing else may call them, and they go when
// benchmark/ stops doing so (ROADMAP, Housekeeping).

// SetHome does nothing.
//
// Deprecated: remains only because benchmark/ was frozen.
func (p *Pool) SetHome(*sim.Engine) {}

// Prealloc does nothing.
//
// Deprecated: remains only because benchmark/ was frozen.
func (p *Pool) Prealloc(int) {}

// ReleaseOn is Release.
//
// Deprecated: remains only because benchmark/ was frozen.
func (b *Buf) ReleaseOn(*sim.Engine) { b.Release() }
