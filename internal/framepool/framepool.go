// Package framepool provides a deterministic free-list pool of frame buffers
// in a few fixed capacity classes, with explicit reference counting.
//
// Every simulation owns exactly one Pool, created alongside its core.System.
// A Buf is obtained with GetLen, from the smallest class that holds the
// payload the caller is about to write, handed between pipeline stages under
// the ownership rules documented in DESIGN.md §8.1 (one reference transfers at
// every hand-off, including failure paths), and returned with Release. The
// pool keeps strict leak accounting: Outstanding() must be zero at
// simulation teardown, and tests assert exactly that.
//
// sync.Pool was deliberately rejected: it is per-P, drains on GC, and hands
// buffers back in a scheduler-dependent order, so two runs of the same
// experiment could observe different buffer identities. Each class is a plain
// LIFO slice owned by a single simulation goroutine, which keeps kitebench
// output byte-identical for any -parallel worker count.
package framepool

import "kite/internal/sim"

const (
	// Headroom is the spare capacity before the payload start, sized so a
	// transport payload can have Ethernet+IPv4+L4 headers prepended without
	// moving bytes (14+20+20 = 54, rounded up). Every class has it.
	Headroom = 64
	// MaxFrame is the largest frame the pipeline carries: one memory page,
	// matching netfront's "frame fits in a grant page" limit. It is the
	// page class's capacity.
	MaxFrame = 4096
	// SmallFrame is the small class's capacity: an ARP frame and the
	// 64 B and 128 B datagrams a request-response or fleet wave sends.
	SmallFrame = smallBytes - Headroom
	// MTUFrame is the MTU class's capacity: a full 1,514 B Ethernet frame.
	MTUFrame = mtuBytes - Headroom
)

// A buffer is one allocation: its Buf header followed by the class's bytes,
// sized so the whole object fills a Go size class (384, 2,304 and 4,864 B).
// A pointerful object above 512 B carries Go's 8 B malloc header, which
// counts against its class. The page class could hold 624 B more; its
// capacity stays one page.
const (
	headerSize = 72                    // unsafe.Sizeof(Buf{}), pinned by TestHeaderSize
	smallBytes = 384 - headerSize      // no malloc header at or below 512 B
	mtuBytes   = 2304 - 8 - headerSize // 8 B malloc header
	pageBytes  = Headroom + MaxFrame
	numClasses = 3
)

type smallBuf struct {
	Buf
	bytes [smallBytes]byte
}

type mtuBuf struct {
	Buf
	bytes [mtuBytes]byte
}

type pageBuf struct {
	Buf
	bytes [pageBytes]byte
}

// classFor returns the smallest class whose capacity holds an n-byte
// payload. A payload beyond MaxFrame gets the page class, whose Extend then
// panics as it always has.
func classFor(n int) int {
	switch {
	case n <= SmallFrame:
		return 0
	case n <= MTUFrame:
		return 1
	}
	return 2
}

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
	next  *Buf
	At    sim.Time
	off   int
	end   int
	refs  int32
	class int32
	data  []byte // the class's bytes, in the same allocation as the header
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

// Cap returns the buffer's class capacity: the longest payload Extend can
// grow it to after a Reset.
func (b *Buf) Cap() int { return len(b.data) - Headroom }

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
func (b *Buf) Refs() int { return int(b.refs) }

// Retain adds a reference and returns b for chaining. Each extra reference
// requires its own Release.
//
//kite:hotpath
func (b *Buf) Retain() *Buf {
	b.refs++
	return b
}

// Release drops one reference; at zero the buffer goes back on its class's
// free list, there and then, on whichever shard the last reference died: a
// simulation runs on one goroutine, so the very next Get of that class may
// hand it out again. Releasing below zero panics — it means an ownership
// rule was violated.
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
	p.free[b.class] = append(p.free[b.class], b)
	p.outstanding--
	p.recycled++
}

// Pool is a per-simulation set of LIFO free lists, one a class, and its leak
// counters.
type Pool struct {
	free        [numClasses][]*Buf
	outstanding int
	gets        uint64
	recycled    uint64
}

// New returns an empty pool; buffers are allocated lazily on first GetLen
// of their class and recycled forever after.
func New() *Pool { return &Pool{} }

// GetLen returns an empty Buf (full headroom, zero length) from the
// smallest class that holds an n-byte payload, holding one reference owned
// by the caller. Extend may grow the payload to the class's capacity, not
// beyond; Prepend may use all of Headroom.
//
//kite:hotpath
func (p *Pool) GetLen(n int) *Buf {
	c := classFor(n)
	var b *Buf
	if l := p.free[c]; len(l) > 0 {
		b = l[len(l)-1]
		p.free[c] = l[:len(l)-1]
	} else {
		b = p.grow(c)
	}
	b.refs = 1
	b.Reset()
	p.gets++
	p.outstanding++
	return b
}

// grow allocates one buffer of class c, header and bytes together.
func (p *Pool) grow(c int) *Buf {
	var b *Buf
	switch c {
	case 0:
		o := &smallBuf{} //kite:alloc-ok pool growth on free-list miss; steady state recycles
		o.data, b = o.bytes[:], &o.Buf
	case 1:
		o := &mtuBuf{} //kite:alloc-ok pool growth on free-list miss; steady state recycles
		o.data, b = o.bytes[:], &o.Buf
	default:
		o := &pageBuf{} //kite:alloc-ok pool growth on free-list miss; steady state recycles
		o.data, b = o.bytes[:], &o.Buf
	}
	b.pool, b.class = p, int32(c)
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
// homes and pre-sizing were removed and buffers came to be taken by length:
// a pool is one free list a class that Release fills wherever it is called.
// Nothing else may call them, and they go when benchmark/ stops doing so
// (ROADMAP, Housekeeping).

// Get is GetLen(MaxFrame): a page-class buffer.
//
// Deprecated: remains only because benchmark/ was frozen.
func (p *Pool) Get() *Buf { return p.GetLen(MaxFrame) }

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
