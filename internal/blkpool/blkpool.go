// Package blkpool provides a deterministic free-list pool of single-owner,
// sector-aligned I/O buffers — the storage-path sibling of
// internal/framepool. Network frames have one natural size (a page), but
// block I/O ranges from a single 512-byte sector to megabyte sequential
// runs, so the pool keeps one LIFO free list per power-of-two size class
// instead of a single list.
//
// A Buf is obtained with Get, handed between pipeline stages under the
// ownership rules documented in DESIGN.md §9.3 (ownership transfers at
// every hand-off, including failure paths), and returned with Release. The
// pool keeps strict leak accounting: Outstanding() must be zero at rig
// teardown, and the storage e2e tests assert exactly that.
//
// sync.Pool was deliberately rejected for the same reason as in framepool:
// it is per-P, drains on GC, and hands buffers back in a
// scheduler-dependent order, so two runs of the same experiment could
// observe different buffer identities. Plain LIFO slices owned by a single
// simulation goroutine keep kitebench output byte-identical for any
// -parallel worker count.
package blkpool

import (
	"fmt"
	"math/bits"
)

// SectorSize is the alignment quantum: every class capacity is a multiple
// of it, matching the 512-byte logical block the whole storage stack uses.
const SectorSize = 512

// minClassShift is the smallest class: 4 KiB, one page — smaller I/O still
// gets a page-sized buffer, which keeps the class count tiny.
const minClassShift = 12

// maxClassShift is the largest class: 4 MiB, comfortably above the largest
// merged device op the experiments produce. Larger requests fall back to a
// plain allocation (counted, never pooled).
const maxClassShift = 22

const numClasses = maxClassShift - minClassShift + 1

// Buf is a pooled sector-aligned buffer. The live payload is data[:n]. Like
// everything else in a simulation it is owned by the simulation's single
// goroutine and is not safe for concurrent use.
type Buf struct {
	pool  *Pool // the free lists the buffer returns to, for life
	data  []byte
	n     int
	class int  // -1: oversized one-off, returned to the GC on release
	live  bool // held by its one owner, between Get and Release
}

// Bytes returns the live payload window.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Len returns the payload length.
func (b *Buf) Len() int { return b.n }

// Cap returns the buffer's class capacity.
func (b *Buf) Cap() int { return len(b.data) }

// Release gives the buffer back: it returns to its pool's free list (or to
// the GC for oversized one-offs). Releasing it twice panics — it means an
// ownership rule was violated.
//
//kite:hotpath
func (b *Buf) Release() {
	if !b.live {
		panic("blkpool: double release")
	}
	b.live = false
	p := b.pool
	p.outstanding--
	p.recycled++
	if b.class >= 0 {
		p.free[b.class] = append(p.free[b.class], b)
	}
}

// Pool is a per-simulation set of LIFO free lists, one per size class, and
// its leak counters.
type Pool struct {
	free        [numClasses][]*Buf
	outstanding int
	gets        uint64
	fresh       uint64
	recycled    uint64
}

// New returns an empty pool; buffers are allocated lazily on first Get and
// recycled forever after.
func New() *Pool { return &Pool{} }

// classFor returns the smallest class index whose capacity holds n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// Outstanding returns the number of buffers currently held by callers. It
// must be zero at simulation teardown.
func (p *Pool) Outstanding() int { return p.outstanding }

// Gets returns the total number of buffers handed out.
func (p *Pool) Gets() uint64 { return p.gets }

// Recycled returns the total number of buffers returned to a free list.
func (p *Pool) Recycled() uint64 { return p.recycled }

// Fresh returns how many Gets had to allocate instead of reusing a pooled
// buffer; Gets-Fresh over Gets is the pool hit rate.
func (p *Pool) Fresh() uint64 { return p.fresh }

// Get returns a Buf with an n-byte payload window (n must be a positive
// multiple of SectorSize) holding one reference owned by the caller;
// oversized one-offs are allocated directly and handed to the GC on
// release. The payload is NOT zeroed — recycled buffers carry stale bytes,
// exactly like a recycled kernel bio; callers must fully overwrite the
// window.
//
//kite:hotpath
func (p *Pool) Get(n int) *Buf {
	if n <= 0 || n%SectorSize != 0 {
		panic(fmt.Sprintf("blkpool: bad buffer size %d", n))
	}
	p.gets++
	p.outstanding++
	class := classFor(n)
	if class >= 0 {
		if l := p.free[class]; len(l) > 0 {
			b := l[len(l)-1]
			p.free[class] = l[:len(l)-1]
			b.n = n
			b.live = true
			return b
		}
	}
	p.fresh++
	b := &Buf{pool: p, n: n, class: class, live: true} //kite:alloc-ok pool growth on free-list miss; steady state recycles
	if class >= 0 {
		b.data = make([]byte, 1<<(minClassShift+class)) //kite:alloc-ok pool growth on free-list miss
	} else {
		b.data = make([]byte, n) //kite:alloc-ok oversized one-off: no class holds n, so it is never pooled
	}
	return b
}
