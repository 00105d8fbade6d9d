//go:build !race

// The race detector's instrumentation turns off the compiler's fused
// append-of-make, so slices.Grow allocates a temporary beside each slab
// and the bytes these tests read double; the slabs themselves are the same.

package mem

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestSlabClass: a fleet tenant's netfront carves its Tx and Rx rings'
// pages 256 at a time. The first 256-page slab with its 8 B allocation
// header lands in the 4,864 B size class, whose room (303 headers) the
// second request fills before it carves the remaining 209 into the 3,456 B
// class: 8,320 B for 512 pages, where two exact slabs took 9,728.
func TestSlabClass(t *testing.T) {
	const n, want = 64, 4864 + 3456
	arenas := make([]*Arena, n)
	for i := range arenas {
		arenas[i] = NewArena("d", 512*PageSize)
		arenas[i].slabs = make([][]Page, 0, 2) // count the slabs alone
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, a := range arenas {
		for range 2 {
			for k := 256; k > 0; k -= len(a.grow(k)) {
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per != want {
		t.Errorf("two 256-page requests allocated %d B, want %d", per, want)
	}
	if got := []int{len(arenas[0].slabs[0]), len(arenas[0].slabs[1])}; got[0] != 303 || got[1] != 209 {
		t.Errorf("slabs of %v headers, want [303 209]", got)
	}
}

// TestCarvingCostsHeadersOnly: the arena keeps what it carves as slabs, so
// carving N pages costs the N 16 B headers plus a bounded amount per slab,
// not a pointer per page beside each header. Eight AllocNs of 512 pages
// carve 4,096 headers into slabs that fill their size class, each next
// request taking the last slab's room first, and a slab list; a per-page
// index would add 32 KiB and its append ladder's copies on top. The heap
// profile attributes each allocation to the function that made it
// (slices.Grow's to grow, which called it), so the []*Page each AllocN
// hands its caller is not counted.
func TestCarvingCostsHeadersOnly(t *testing.T) {
	const slabs, per = 8, 512
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	a := NewArena("d0", slabs*per*PageSize)
	before := growBytes()
	for range slabs {
		if _, err := a.AllocN(per); err != nil {
			t.Fatal(err)
		}
	}
	got := growBytes() - before
	headers := int64(slabs * per * unsafe.Sizeof(Page{}))
	if perSlab := int64(1536); got < headers || got > headers+slabs*perSlab {
		t.Fatalf("carving %d pages allocated %d B, want their %d B of headers plus at most %d B a slab", slabs*per, got, headers, perSlab)
	}
	if a.InUse() != slabs*per || a.Lookup(slabs*per) == nil || a.Lookup(slabs*per+1) != nil {
		t.Fatalf("InUse %d, Lookup of the last page %v, want %d and found", a.InUse(), a.Lookup(slabs*per), slabs*per)
	}
}

// growBytes returns the bytes the heap profile records as allocated by
// Arena.grow, directly or through slices.Grow. A record is published a
// cycle after its allocation, so two collections run first.
func growBytes() (total int64) {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	for i := range recs[:n] {
		frames := runtime.CallersFrames(recs[i].Stack())
		fr, more := frames.Next()
		for more && (strings.HasPrefix(fr.Function, "runtime.") || strings.HasPrefix(fr.Function, "slices.")) {
			fr, more = frames.Next()
		}
		if fr.Function == "kite/internal/mem.(*Arena).grow" {
			total += recs[i].AllocBytes
		}
	}
	return total
}
