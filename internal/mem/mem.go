// Package mem provides per-domain page arenas. Every Xen domain in the
// simulation owns an Arena of 4 KiB pages; grant-table operations move real
// bytes between pages of different arenas, so data integrity through the
// split-driver path is checkable end to end.
//
// Pages are demand-zero, as the machine frames under a Xen guest are with
// populate-on-demand: allocating a page carves its header — its ID, its
// place in the arena's accounting, something a grant can name — and the
// 4 KiB behind it come into being at the first Bytes() call. A device that
// allocates and grants 512 ring buffers at connect and then uses two of
// them holds two pages of host memory, not 2 MiB; nothing the simulation
// models (IDs, allocation order, InUse, exhaustion) can tell the difference.
package mem

import (
	"fmt"
	"math"
	"slices"
)

// PageSize is the x86 page size used throughout Xen's grant interface.
const PageSize = 4096

// PageID identifies a page within one arena (a pseudo physical frame
// number). Thirty-two bits name 16 TiB of 4 KiB pages, more than any
// domain's RAM assignment; NewArena refuses an arena they cannot number.
type PageID uint32

// Page is one 4 KiB frame of simulated guest memory.
//
// Page headers are carved by the hundred thousand (fleet guests), so the
// header is held to 16 B, so that a 256-page slab and its allocation header
// fit the 4,864 B size class: the bytes as an array pointer, not a slice
// header, and no pointer to the arena. Which arena a page belongs to, and
// where in it, is asked of the arena (Place, Owns), on the grant and free
// paths only.
type Page struct {
	// data is what Bytes returns: the page's own backing (nil until the
	// first Bytes(), then for good), or, while lent is set, a loan standing
	// in for it; the lender holds the backing meanwhile.
	data  *[PageSize]byte
	ID    PageID
	freed bool
	lent  bool
}

// Arena is a domain's memory: an allocator handing out fixed-size pages up
// to a configured maximum (the domain's RAM assignment). Growth carves page
// headers only, into slabs that fill their size class: a request first
// takes what the last slab's class has room for, then one new slab for the
// rest, so bringing up a 512-page device costs one or two heap objects, and
// the arena keeps the slabs, not a pointer per page. A page's place in them
// (Place, At) is two 16-bit numbers, which is how a grant table names it.
// A page's bytes are
// allocated at its first touch and then stay with it: Free keeps the
// backing, so a driver that recycles pages per request (blkfront) allocates
// nothing in steady state, and reuse has only ever-touched pages to clear.
type Arena struct {
	// slabs holds every header ever carved, in ID order; the last slab may
	// have room. It must stay the first field (see xen.Domain).
	slabs    [][]Page
	name     string
	maxPages int
	carved   int // headers carved so far, IDs 1..carved
	free     []*Page

	allocs uint64
}

// NewArena creates an arena able to hold maxBytes of page-granular memory.
// It panics on an arena smaller than one page, or with more pages than a
// PageID can number.
func NewArena(name string, maxBytes int64) *Arena {
	if maxBytes < PageSize {
		panic(fmt.Sprintf("mem: arena %q smaller than one page", name))
	}
	if maxBytes/PageSize > math.MaxUint32 {
		panic(fmt.Sprintf("mem: arena %q of %d pages overflows a PageID", name, maxBytes/PageSize))
	}
	return &Arena{name: name, maxPages: int(maxBytes / PageSize)}
}

// Capacity returns the maximum number of pages.
func (a *Arena) Capacity() int { return a.maxPages }

// InUse returns the number of currently allocated pages.
func (a *Arena) InUse() int { return a.carved - len(a.free) }

// Allocs returns the lifetime allocation count: pages handed out, plus one
// per request refused for lack of memory.
func (a *Arena) Allocs() uint64 { return a.allocs }

// Backed returns how many of the arena's pages, allocated or free, have
// been touched and so hold 4 KiB of host memory. A lent page is not
// counted: its lender holds its backing for the loan's life. It walks the
// arena; it is for tests and footprint reports.
func (a *Arena) Backed() int {
	n := 0
	for _, slab := range a.slabs {
		for i := range slab {
			if p := &slab[i]; p.data != nil && !p.lent {
				n++
			}
		}
	}
	return n
}

// Release gives up every page when the owning domain is destroyed: the
// arena forgets its pages, so only what a third party still holds (a
// backend's live mapping) stays reachable, and its capacity drops to zero,
// so it hands out no more. Lookup finds nothing afterwards, and a Free that
// arrives late is dropped.
func (a *Arena) Release() {
	a.slabs, a.free = nil, nil
	a.carved, a.maxPages = 0, 0
}

// Alloc returns a zeroed page, or an error if the arena is exhausted —
// which models a domain running out of its RAM assignment.
func (a *Arena) Alloc() (*Page, error) {
	a.allocs++
	if p := a.reuse(); p != nil {
		return p, nil
	}
	if a.carved >= a.maxPages {
		return nil, a.outOfMemory()
	}
	return &a.grow(1)[0], nil
}

// MustAlloc is Alloc for paths where exhaustion is a configuration error.
func (a *Arena) MustAlloc() *Page {
	p, err := a.Alloc()
	if err != nil {
		panic(err)
	}
	return p
}

// AllocN allocates n zeroed pages: freed pages first, most recently freed
// first, then the shortfall from freshly carved headers, in ascending ID
// order. A request the arena cannot meet in full takes nothing.
func (a *Arena) AllocN(n int) ([]*Page, error) {
	fresh := n - len(a.free)
	if fresh > a.maxPages-a.carved {
		a.allocs++
		return nil, a.outOfMemory()
	}
	a.allocs += uint64(n)
	out := make([]*Page, 0, n)
	for len(out) < n {
		p := a.reuse()
		if p == nil {
			break
		}
		out = append(out, p)
	}
	for fresh > 0 {
		part := a.grow(fresh)
		for i := range part {
			out = append(out, &part[i])
		}
		fresh -= len(part)
	}
	return out, nil
}

//kite:coldpath builds the exhaustion error; steady state never runs out
func (a *Arena) outOfMemory() error {
	return fmt.Errorf("mem: arena %q out of memory (%d pages)", a.name, a.maxPages)
}

// reuse pops the most recently freed page and zeroes it; nil if none. A
// page that was never touched has nothing to clear.
func (a *Arena) reuse() *Page {
	n := len(a.free)
	if n == 0 {
		return nil
	}
	p := a.free[n-1]
	a.free = a.free[:n-1]
	p.freed = false
	if p.data != nil {
		*p.data = [PageSize]byte{}
	}
	return p
}

// Slab bounds: a slab holds at most maxSlab headers and an arena at most
// maxSlabs slabs, so a page's place is two uint16s that never alias another
// page's.
const (
	maxSlab  = math.MaxUint16
	maxSlabs = math.MaxUint16
)

// grow carves up to n fresh page headers, in ascending ID order, and
// returns them; no page is backed yet. It extends the last slab in place
// while that slab has capacity, and only a full last slab makes it carve a
// new one, which slices.Grow sizes to fill its size class: the class's
// rounding is the next grow's headers, not waste. It returns fewer than n
// when the last slab fills up, so callers loop. Extending in place never
// moves a header, so every *Page handed out stays valid.
func (a *Arena) grow(n int) []Page {
	last := len(a.slabs) - 1
	if last < 0 || len(a.slabs[last]) == cap(a.slabs[last]) {
		if last+1 == maxSlabs {
			a.tooManySlabs()
		}
		slab := slices.Grow([]Page(nil), min(n, maxSlab))           //kite:alloc-ok arena growth on free-list miss; pages recycle
		a.slabs = append(a.slabs, slab[:0:min(cap(slab), maxSlab)]) //kite:alloc-ok one entry per slab
		last++
	}
	slab := a.slabs[last]
	k := min(n, cap(slab)-len(slab))
	part := slab[len(slab) : len(slab)+k]
	for i := range part {
		part[i].ID = PageID(a.carved + 1 + i)
	}
	a.slabs[last] = slab[:len(slab)+k]
	a.carved += k
	return part
}

// tooManySlabs refuses a slab that a uint16 could not number: a grant
// naming a page in it would alias a page of slab 0.
//
//kite:coldpath an arena reaches it only by carving 65,535 slabs
func (a *Arena) tooManySlabs() {
	panic(fmt.Sprintf("mem: arena %q past %d slabs", a.name, maxSlabs))
}

// Free returns a page to the arena. Freeing a foreign, already-freed or
// lent page panics: all three indicate memory-safety bugs in a driver (the
// last would let reuse clear, and the next owner write, the lender's bytes).
// A released arena has forgotten its pages, so a Free that arrives after
// Release is dropped without the ownership check.
func (a *Arena) Free(p *Page) {
	released := a.maxPages == 0
	if !released && !a.Owns(p) {
		panic(fmt.Sprintf("mem: page %d freed to wrong arena %q", p.ID, a.name))
	}
	if p.freed {
		panic(fmt.Sprintf("mem: double free of page %d in arena %q", p.ID, a.name))
	}
	if p.lent {
		panic(fmt.Sprintf("mem: page %d of arena %q freed while lent", p.ID, a.name))
	}
	p.freed = true
	if released { // nothing to recycle into
		return
	}
	a.free = append(a.free, p)
}

// Owns reports whether p is one of the arena's pages, allocated or free;
// false for every page once the arena is released.
func (a *Arena) Owns(p *Page) bool {
	_, _, ok := a.Place(p)
	return ok
}

// Place returns where p's header sits in the arena: its slab and its
// offset in that slab, the pair At takes. ok is false for a page the arena
// does not own. It searches the slabs (see slabOf); At does not.
func (a *Arena) Place(p *Page) (slab, off uint16, ok bool) {
	i := a.slabOf(p.ID)
	if i < 0 {
		return 0, 0, false
	}
	o := p.ID - a.slabs[i][0].ID
	if &a.slabs[i][o] != p {
		return 0, 0, false
	}
	return uint16(i), uint16(o), true
}

// At returns the page at a place Place gave: two indexings, no search.
func (a *Arena) At(slab, off uint16) *Page { return &a.slabs[slab][off] }

// slabOf returns the index of the slab holding the header with the given
// ID, -1 if the arena never carved it. The slabs are in ID order, so it is
// a binary search: O(log n) in an arena grown one page at a time
// (blkfront's).
func (a *Arena) slabOf(id PageID) int {
	lo, hi := 0, len(a.slabs) // the slab sought is the last starting at or below id
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); a.slabs[m][0].ID <= id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 || int(id-a.slabs[lo-1][0].ID) >= len(a.slabs[lo-1]) {
		return -1
	}
	return lo - 1
}

// Lookup returns the live page with the given ID, or nil. It is for tests
// and diagnostics.
func (a *Arena) Lookup(id PageID) *Page {
	if i := a.slabOf(id); i >= 0 {
		if p := &a.slabs[i][id-a.slabs[i][0].ID]; !p.freed {
			return p
		}
	}
	return nil
}

// Freed reports whether the page has been returned to its arena.
func (p *Page) Freed() bool { return p.freed }

// Bytes returns the page's PageSize bytes — the same slice on every call,
// zeroed and allocated at the first — or, while the page is lent, the
// loan. Its capacity is its length, so an append cannot spill into
// whatever the allocator put next to it.
func (p *Page) Bytes() []byte {
	if p.data == nil {
		p.back()
	}
	return p.data[:]
}

// back is the first touch. It is kept out of line so that Bytes inlines to
// a nil check and a call at every call site.
//
//kite:coldpath once per page lifetime; hot paths are warmed past every page they use
//go:noinline
func (p *Page) back() {
	p.data = new([PageSize]byte)
}

// Lend puts b, which must be PageSize long, in place of the page's
// backing and returns the backing it displaced (nil for a page never
// touched), which the lender keeps and hands to Restore to end the loan.
// While the loan lasts, Bytes — and through it every view of the page
// another domain holds — reads and writes b; the page's own bytes are
// untouched by it. Lending a lent or freed page, or a b of another
// length, panics.
func (p *Page) Lend(b []byte) (own []byte) {
	if len(b) != PageSize || p.freed || p.lent {
		panic(fmt.Sprintf("mem: loan of %d bytes to page %d (freed %v, lent %v)", len(b), p.ID, p.freed, p.lent))
	}
	if p.data != nil {
		own = p.data[:]
	}
	p.data, p.lent = (*[PageSize]byte)(b), true
	return own
}

// Restore ends a loan: own, the backing Lend returned, is the page's
// again. On a page not lent it does nothing. Restore(nil) on a page lent
// with its backing lost (its domain destroyed) leaves it unbacked, to be
// zeroed at its next touch; a non-nil own that is not PageSize long
// panics rather than unback the page.
func (p *Page) Restore(own []byte) {
	var data *[PageSize]byte
	if own != nil {
		if len(own) != PageSize {
			panic(fmt.Sprintf("mem: restore of %d bytes to page %d", len(own), p.ID))
		}
		data = (*[PageSize]byte)(own)
	}
	if p.lent {
		p.data, p.lent = data, false
	}
}

// Lent reports whether a loan stands in for the page's own bytes.
func (p *Page) Lent() bool { return p.lent }

// CopyInto copies len(src) bytes into the page at off.
func (p *Page) CopyInto(off int, src []byte) {
	if off < 0 || off+len(src) > PageSize {
		panic(fmt.Sprintf("mem: copy of %d bytes at offset %d overflows page", len(src), off))
	}
	copy(p.Bytes()[off:], src)
}

// CopyFrom copies n bytes out of the page starting at off.
func (p *Page) CopyFrom(off, n int) []byte {
	if off < 0 || off+n > PageSize {
		panic(fmt.Sprintf("mem: read of %d bytes at offset %d overflows page", n, off))
	}
	out := make([]byte, n)
	copy(out, p.Bytes()[off:])
	return out
}
