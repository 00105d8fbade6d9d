package mem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocZeroed(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range p.Bytes() {
		if b != 0 {
			t.Fatalf("fresh page byte %d = %d, want 0", i, b)
		}
	}
	if len(p.Bytes()) != PageSize {
		t.Fatalf("page size %d, want %d", len(p.Bytes()), PageSize)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := NewArena("tiny", 2*PageSize)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

func TestFreeAndReuseZeroes(t *testing.T) {
	a := NewArena("d0", PageSize)
	p := a.MustAlloc()
	p.Bytes()[0] = 0xAB
	a.Free(p)
	q := a.MustAlloc()
	if q.Bytes()[0] != 0 {
		t.Fatal("recycled page not zeroed")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p := a.MustAlloc()
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestCrossArenaFreePanics(t *testing.T) {
	a := NewArena("a", 1<<20)
	b := NewArena("b", 1<<20)
	p := a.MustAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-arena free did not panic")
		}
	}()
	b.Free(p)
}

func TestAllocNRollsBack(t *testing.T) {
	a := NewArena("d0", 4*PageSize)
	if _, err := a.AllocN(3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocN(2); err == nil {
		t.Fatal("AllocN beyond capacity succeeded")
	}
	// The failed AllocN must have rolled back its partial page.
	if a.InUse() != 3 {
		t.Fatalf("in-use after failed AllocN = %d, want 3", a.InUse())
	}
}

func TestLookup(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p := a.MustAlloc()
	if a.Lookup(p.ID) != p {
		t.Fatal("Lookup did not return live page")
	}
	a.Free(p)
	if a.Lookup(p.ID) != nil {
		t.Fatal("Lookup returned a freed page")
	}
	if a.Lookup(99999) != nil {
		t.Fatal("Lookup returned a page for unknown ID")
	}
}

func TestCopyRoundTrip(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p := a.MustAlloc()
	src := []byte("hello, grant tables")
	p.CopyInto(100, src)
	got := p.CopyFrom(100, len(src))
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip = %q, want %q", got, src)
	}
}

func TestCopyBoundsPanics(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p := a.MustAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing CopyInto did not panic")
		}
	}()
	p.CopyInto(PageSize-4, make([]byte, 8))
}

func TestArenaTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sub-page arena did not panic")
		}
	}()
	NewArena("bad", 100)
}

// TestArenaPageIDRange: an arena whose pages a PageID cannot number is
// refused at creation; the largest one it can number is not.
func TestArenaPageIDRange(t *testing.T) {
	const most = int64(math.MaxUint32) * PageSize
	if got := NewArena("widest", most).Capacity(); got != math.MaxUint32 {
		t.Fatalf("Capacity = %d, want %d", got, uint32(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an arena of 2^32 pages did not panic")
		}
	}()
	NewArena("too wide", most+PageSize)
}

// Property: alloc/free sequences never exceed capacity, never lose pages,
// and InUse always equals allocated-minus-freed.
func TestArenaAccountingProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		a := NewArena("p", 8*PageSize)
		var live []*Page
		inUse := 0
		for _, alloc := range ops {
			if alloc {
				p, err := a.Alloc()
				if err != nil {
					if inUse != 8 {
						return false // failed before capacity
					}
					continue
				}
				live = append(live, p)
				inUse++
			} else if len(live) > 0 {
				a.Free(live[len(live)-1])
				live = live[:len(live)-1]
				inUse--
			}
			if a.InUse() != inUse {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// allocN is AllocN for tests that expect it to succeed.
func allocN(t *testing.T, a *Arena, n int) []*Page {
	t.Helper()
	pages, err := a.AllocN(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != n {
		t.Fatalf("AllocN(%d) returned %d pages", n, len(pages))
	}
	return pages
}

// TestAllocNSlabPages: pages whose headers share one slab are zeroed,
// exactly one page long with no spare capacity, pairwise disjoint, and
// numbered in order.
func TestAllocNSlabPages(t *testing.T) {
	a := NewArena("d0", 1<<20)
	first := a.MustAlloc() // a one-page slab ahead of the big one
	pages := allocN(t, a, 64)
	for i, p := range pages {
		if len(p.Bytes()) != PageSize || cap(p.Bytes()) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want both %d", i, len(p.Bytes()), cap(p.Bytes()), PageSize)
		}
		if p.ID != first.ID+PageID(i)+1 {
			t.Fatalf("page %d has ID %d, want %d", i, p.ID, first.ID+PageID(i)+1)
		}
		if !a.Owns(p) || p.Freed() || a.Lookup(p.ID) != p {
			t.Fatalf("page %d: owner/freed/lookup wrong", i)
		}
		for j, b := range p.Bytes() {
			if b != 0 {
				t.Fatalf("page %d byte %d = %d, want 0", i, j, b)
			}
		}
	}
	// Fill each page with its own mark, appending past the end too: a
	// neighbour must never see it.
	for i, p := range pages {
		for j := range p.Bytes() {
			p.Bytes()[j] = byte(i + 1)
		}
		_ = append(p.Bytes(), 0xEE)
	}
	for i, p := range append([]*Page{first}, pages...) {
		for j, b := range p.Bytes() {
			if b != byte(i) {
				t.Fatalf("page %d byte %d = %#x after neighbours were written, want %#x", i, j, b, byte(i))
			}
		}
	}
	if a.InUse() != 65 || a.Allocs() != 65 {
		t.Fatalf("InUse %d Allocs %d, want 65 65", a.InUse(), a.Allocs())
	}
}

// TestSlabFreeReuse: freeing every page of a slab and allocating again
// reuses those pages, re-zeroed, instead of growing the arena.
func TestSlabFreeReuse(t *testing.T) {
	a := NewArena("d0", 8*PageSize)
	pages := allocN(t, a, 8)
	seen := make(map[*Page]bool)
	for _, p := range pages {
		p.Bytes()[PageSize-1] = 0xAB
		seen[p] = true
		a.Free(p)
	}
	if a.InUse() != 0 {
		t.Fatalf("InUse after freeing the slab = %d", a.InUse())
	}
	// Capacity is 8: any growth here would fail outright.
	again := allocN(t, a, 5)
	again = append(again, a.MustAlloc(), a.MustAlloc(), a.MustAlloc())
	for i, p := range again {
		if !seen[p] {
			t.Fatalf("allocation %d is a fresh page, want a recycled one", i)
		}
		delete(seen, p)
		if p.Freed() || p.Bytes()[PageSize-1] != 0 {
			t.Fatalf("recycled page %d not live and zeroed", i)
		}
	}
	if a.InUse() != 8 {
		t.Fatalf("InUse = %d, want 8", a.InUse())
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

// TestAllocNMixesFreeListAndSlab: most recently freed pages come first,
// the shortfall comes from a fresh slab in ID order.
func TestAllocNMixesFreeListAndSlab(t *testing.T) {
	a := NewArena("d0", 16*PageSize)
	old := allocN(t, a, 3)
	a.Free(old[0])
	a.Free(old[2])
	got := allocN(t, a, 5)
	if got[0] != old[2] || got[1] != old[0] {
		t.Fatal("AllocN did not take freed pages first, most recent first")
	}
	for i, p := range got[2:] {
		if p.ID != PageID(4+i) {
			t.Fatalf("fresh page %d has ID %d, want %d", i, p.ID, 4+i)
		}
	}
	if a.InUse() != 6 {
		t.Fatalf("InUse = %d, want 6", a.InUse())
	}
}

// TestAllocNOutOfMemoryTakesNothing: a request the arena cannot meet hands
// everything back — the free list included — and later requests that fit
// still succeed.
func TestAllocNOutOfMemoryTakesNothing(t *testing.T) {
	a := NewArena("tiny", 4*PageSize)
	held := allocN(t, a, 3)
	a.Free(held[1])
	allocs := a.Allocs()
	if _, err := a.AllocN(3); err == nil {
		t.Fatal("AllocN beyond capacity succeeded")
	} else if want := `mem: arena "tiny" out of memory (4 pages)`; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	if a.InUse() != 2 || a.Capacity() != 4 {
		t.Fatalf("after failed AllocN: InUse %d Capacity %d, want 2 4", a.InUse(), a.Capacity())
	}
	if a.Allocs() != allocs+1 {
		t.Fatalf("failed AllocN moved Allocs by %d, want 1", a.Allocs()-allocs)
	}
	if a.Lookup(held[1].ID) != nil {
		t.Fatal("failed AllocN left a freed page looking live")
	}
	if got := allocN(t, a, 2); got[0] != held[1] {
		t.Fatal("the freed page was lost by the failed AllocN")
	}
	if a.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", a.InUse())
	}
}

// TestSlabPageMisusePanics: pages of a slab are as strictly owned as
// single pages.
func TestSlabPageMisusePanics(t *testing.T) {
	a := NewArena("a", 1<<20)
	b := NewArena("b", 1<<20)
	pages := allocN(t, a, 4)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("cross-arena free of a slab page", func() { b.Free(pages[1]) })
	a.Free(pages[2])
	mustPanic("double free of a slab page", func() { a.Free(pages[2]) })
}

// TestFirstTouch: allocating a page does not back it; the first Bytes()
// does, with a zeroed slice of exactly one page that every later call
// returns again.
func TestFirstTouch(t *testing.T) {
	a := NewArena("d0", 1<<20)
	pages := append([]*Page{a.MustAlloc()}, allocN(t, a, 8)...)
	if a.Backed() != 0 {
		t.Fatalf("Backed after allocating %d pages = %d, want 0", len(pages), a.Backed())
	}
	for i, p := range pages[:3] {
		b := p.Bytes()
		if len(b) != PageSize || cap(b) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want both %d", i, len(b), cap(b), PageSize)
		}
		if !bytes.Equal(b, make([]byte, PageSize)) {
			t.Fatalf("page %d not zeroed at first touch", i)
		}
		b[17] = 0xC3
		if again := p.Bytes(); &again[0] != &b[0] || again[17] != 0xC3 {
			t.Fatalf("page %d: second Bytes() is a different slice", i)
		}
		if a.Backed() != i+1 {
			t.Fatalf("Backed after touching %d pages = %d", i+1, a.Backed())
		}
	}
	if a.InUse() != 9 || a.Allocs() != 9 {
		t.Fatalf("InUse %d Allocs %d, want 9 9: touching a page is not an allocation", a.InUse(), a.Allocs())
	}
}

// TestCopyBacksOnDemand: CopyInto and CopyFrom work on a page nobody has
// touched, and a read of one sees zeroes.
func TestCopyBacksOnDemand(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p, q := a.MustAlloc(), a.MustAlloc()
	p.CopyInto(PageSize-4, []byte("tail"))
	if got := p.CopyFrom(PageSize-4, 4); string(got) != "tail" {
		t.Fatalf("CopyFrom after CopyInto = %q", got)
	}
	if got := q.CopyFrom(0, PageSize); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("CopyFrom of an untouched page is not zero")
	}
	if a.Backed() != 2 {
		t.Fatalf("Backed = %d, want 2", a.Backed())
	}
}

// TestRecycleKeepsBacking: a page that goes through Free and Alloc reads
// zero either way; one that was backed keeps the same bytes (so recycling
// allocates nothing), one that was not stays unbacked.
func TestRecycleKeepsBacking(t *testing.T) {
	a := NewArena("d0", 2*PageSize)
	touched, untouched := a.MustAlloc(), a.MustAlloc()
	b := touched.Bytes()
	b[0], b[PageSize-1] = 0xAB, 0xCD
	a.Free(touched)
	a.Free(untouched)
	if a.Backed() != 1 {
		t.Fatalf("Backed after Free = %d, want 1: Free keeps the backing", a.Backed())
	}
	if got := allocN(t, a, 2); got[0] != untouched || got[1] != touched {
		t.Fatal("recycled pages are not the freed ones, most recent first")
	}
	if a.Backed() != 1 {
		t.Fatalf("Backed after recycling = %d, want 1: reuse must not back a page to clear it", a.Backed())
	}
	if again := touched.Bytes(); &again[0] != &b[0] {
		t.Fatal("recycled page lost its backing")
	} else if again[0] != 0 || again[PageSize-1] != 0 {
		t.Fatal("recycled backed page not zeroed")
	}
	if !bytes.Equal(untouched.Bytes(), make([]byte, PageSize)) {
		t.Fatal("recycled unbacked page not zero")
	}
}

// TestRelease: a released arena holds no pages and hands out none; a page
// someone still holds stays usable, and freeing it late is harmless.
func TestRelease(t *testing.T) {
	a := NewArena("gone", 1<<20)
	pages := allocN(t, a, 4)
	held := pages[1]
	held.CopyInto(0, []byte("mapped"))
	a.Free(pages[3])
	a.Release()
	if a.Backed() != 0 || a.InUse() != 0 {
		t.Fatalf("after Release: Backed %d InUse %d, want 0 0", a.Backed(), a.InUse())
	}
	if a.Lookup(held.ID) != nil {
		t.Fatal("Lookup on a released arena returned a page")
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("Alloc on a released arena succeeded")
	}
	if _, err := a.AllocN(2); err == nil {
		t.Fatal("AllocN on a released arena succeeded")
	}
	if got := held.CopyFrom(0, 6); string(got) != "mapped" {
		t.Fatalf("held page reads %q after Release", got)
	}
	a.Free(held)
	if !held.Freed() || a.InUse() != 0 || a.Backed() != 0 {
		t.Fatalf("late Free: Freed %v InUse %d Backed %d, want true 0 0", held.Freed(), a.InUse(), a.Backed())
	}
}

// TestLend: a loan stands in for the page's bytes and leaves its own
// untouched; Restore brings them back, an unbacked page stays unbacked
// across one, and a lent page can be neither lent again nor freed.
func TestLend(t *testing.T) {
	a := NewArena("d0", 1<<20)
	backed, unbacked := a.MustAlloc(), a.MustAlloc()
	own := backed.Bytes()
	own[0] = 0x11
	loan := make([]byte, 2*PageSize)
	owns := make([][]byte, 2)
	for i, p := range []*Page{backed, unbacked} {
		owns[i] = p.Lend(loan[i*PageSize : (i+1)*PageSize])
		if !p.Lent() {
			t.Fatal("Lent false during a loan")
		}
		b := p.Bytes()
		if &b[0] != &loan[i*PageSize] || cap(b) != PageSize {
			t.Fatalf("page %d: Bytes during a loan is not the loan, capped at a page", p.ID)
		}
		b[0] = 0x22
	}
	if &owns[0][0] != &own[0] || owns[1] != nil {
		t.Fatal("Lend did not return the displaced backing")
	}
	if own[0] != 0x11 || a.Backed() != 0 {
		t.Fatalf("loan touched the page's own bytes (%#x) or counts as backed (Backed %d)", own[0], a.Backed())
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Free of a lent page", func() { a.Free(backed) })
	mustPanic("a second loan", func() { backed.Lend(loan[PageSize:]) })
	for i, p := range []*Page{backed, unbacked} {
		p.Restore(owns[i])
		p.Restore(nil) // ending no loan does nothing
		if p.Lent() {
			t.Fatal("Lent true after the loan ended")
		}
	}
	if b := backed.Bytes(); &b[0] != &own[0] || b[0] != 0x11 {
		t.Fatal("ending the loan did not bring the page's own bytes back")
	}
	if a.Backed() != 1 {
		t.Fatalf("Backed after the loans = %d, want 1", a.Backed())
	}
	a.Free(backed)
	if got := a.MustAlloc(); got != backed || loan[0] != 0x22 {
		t.Fatal("reuse of a page lent earlier cleared the loaned bytes")
	}
	mustPanic("a loan shorter than a page", func() { unbacked.Lend(loan[:PageSize-1]) })
	mustPanic("a loan longer than a page", func() { unbacked.Lend(loan) })
}

// TestRestoreChecksLength: Restore(nil) ends a loan leaving the page
// unbacked; a non-nil backing of any length but a page's panics rather
// than unback the page, whether or not the page is lent.
func TestRestoreChecksLength(t *testing.T) {
	a := NewArena("d0", 1<<20)
	p := a.MustAlloc()
	p.Bytes()[0] = 0x33
	loan := make([]byte, PageSize)
	own := p.Lend(loan)
	for _, bad := range [][]byte{{}, own[:PageSize-1], make([]byte, PageSize+1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Restore of %d bytes did not panic", len(bad))
				}
			}()
			p.Restore(bad)
		}()
		if !p.Lent() || &p.Bytes()[0] != &loan[0] {
			t.Fatalf("a refused Restore of %d bytes ended the loan", len(bad))
		}
	}
	p.Restore(nil) // the backing was lost: the page comes back unbacked
	if p.Lent() || a.Backed() != 0 {
		t.Fatalf("after Restore(nil): Lent %v Backed %d, want false 0", p.Lent(), a.Backed())
	}
	if !bytes.Equal(p.Bytes(), make([]byte, PageSize)) {
		t.Fatal("a page restored unbacked is not zero at its next touch")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Restore of a short backing to a page not lent did not panic")
			}
		}()
		p.Restore(own[:1])
	}()
}

// TestPageHeaderSize: page headers are carved by the hundred thousand (512
// per fleet tenant), so the header is an array pointer, a 32-bit ID and two
// flags: 16 B; a field more shows in every fleet guest's heap.
func TestPageHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != 16 {
		t.Fatalf("sizeof(Page) = %d, want 16", got)
	}
}

// TestPlaceIsSixteenBits: a grant names its page by slab and offset, two
// uint16s, so neither may wrap onto another page. One request past 65,535
// pages carves a second slab rather than a slab a uint16 cannot index, and
// an arena grown a page at a time refuses its 65,536th slab.
func TestPlaceIsSixteenBits(t *testing.T) {
	const n = math.MaxUint16 + 100
	a := NewArena("big", n*PageSize)
	pages, err := a.AllocN(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.slabs[0]) != math.MaxUint16 {
		t.Fatalf("first slab holds %d headers, want %d", len(a.slabs[0]), math.MaxUint16)
	}
	for i, p := range pages {
		slab, off, ok := a.Place(p)
		if !ok || a.At(slab, off) != p || int(slab)*math.MaxUint16+int(off) != i {
			t.Fatalf("page %d (ID %d) placed at %d:%d (ok %v)", i, p.ID, slab, off, ok)
		}
	}
	if _, _, ok := NewArena("other", PageSize).Place(pages[0]); ok {
		t.Fatal("an arena placed a page it does not own")
	}

	one := NewArena("one", (math.MaxUint16+1)*PageSize)
	var last *Page
	for range math.MaxUint16 {
		last = one.MustAlloc()
	}
	if slab, off, _ := one.Place(last); len(one.slabs) != math.MaxUint16 || slab != math.MaxUint16-1 || off != 0 {
		t.Fatalf("%d slabs, last page at %d:%d, want %d slabs and %d:0", len(one.slabs), slab, off, math.MaxUint16, math.MaxUint16-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an arena carved a slab past 65,535")
		}
	}()
	one.MustAlloc()
}
