package mem

import (
	"runtime"
	"syscall"
)

// ReserveHuge puts the next n bytes the program allocates on 2 MiB pages
// (transparent huge pages), so a working set of many small objects — a
// fleet's tenants — costs one TLB entry per 2 MiB instead of per 4 KiB.
//
// It allocates n bytes of fresh heap, advises the range MADV_HUGEPAGE,
// drops it and collects, so the runtime frees the range untouched and the
// allocations that follow fill it, faulted in as huge pages at first touch
// with no copy. It relies on three facts of the Go runtime on Linux: it
// never advises its heap itself; it maps a new heap arena with
// mmap(MAP_FIXED), which drops any advice already on the range, so advice
// must come after the mapping; and it never remaps a range afterwards
// (sysUsedOS does nothing), so the advice lasts for the life of the process.
//
// Only memory nothing has touched yet gains: heap the program already
// faulted in, live or freed, keeps its 4 KiB pages, and so does growth
// beyond the n bytes. So call it once, early, before the objects are
// built, sized to what they will hold. Under THP mode [never] the advice
// is ignored; a failed madvise leaves the heap as it was.
func ReserveHuge(n int64) {
	if n <= 0 {
		return
	}
	_ = syscall.Madvise(make([]byte, n), syscall.MADV_HUGEPAGE)
	runtime.GC()
}
