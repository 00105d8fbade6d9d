//go:build !linux

package mem

// ReserveHuge does nothing off Linux: transparent huge pages and
// MADV_HUGEPAGE are Linux's, and the heap stays on the platform's pages.
func ReserveHuge(n int64) {}
