//go:build !race

// The race detector's instrumentation turns off the compiler's fused
// append-of-make, so slices.Grow allocates a temporary beside the table
// and the bytes read here double; the table itself is the same.

package xen

import (
	"fmt"
	"runtime"
	"testing"
)

// TestGrantTableClass: a fleet tenant's connect reserves its 512 ring
// grants in one table of 513 entries (ref 0 is never issued). The table
// holds no pointer, so it has no allocation header: 4,104 B land in the
// 4,864 B size class, not the next.
func TestGrantTableClass(t *testing.T) {
	const n, want = 64, 4864
	_, hv, _ := newHV(t)
	doms := make([]*Domain, n)
	for i := range doms {
		doms[i] = hv.CreateDomain(DomainConfig{Name: fmt.Sprintf("d%d", i), VCPUs: 1, MemBytes: 1 << 20})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, d := range doms {
		d.ReserveGrants(512)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per != want {
		t.Errorf("a 513-entry table allocated %d B, want %d", per, want)
	}
	if got := cap(doms[0].grants); got*8 > want || got < 513 {
		t.Errorf("table capacity %d entries, want 513 to %d", got, want/8)
	}
}
