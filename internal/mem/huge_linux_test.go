package mem

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// vma is one mapping of /proc/self/smaps: its address range, the
// kilobytes of it on transparent huge pages, and whether it carries
// MADV_HUGEPAGE (VmFlags "hg").
type vma struct {
	lo, hi   uintptr
	anonHuge int64
	advised  bool
}

func readSmaps(t *testing.T) []vma {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	var out []vma
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "AnonHugePages:"); ok && len(out) > 0 {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("smaps: %q: %v", line, err)
			}
			out[len(out)-1].anonHuge = kb
			continue
		}
		if v, ok := strings.CutPrefix(line, "VmFlags:"); ok && len(out) > 0 {
			out[len(out)-1].advised = slices.Contains(strings.Fields(v), "hg")
			continue
		}
		// A mapping's header is "lo-hi perms offset dev inode [path]"; its
		// fields are "Key: value" lines.
		rng, _, _ := strings.Cut(line, " ")
		los, his, ok := strings.Cut(rng, "-")
		if !ok {
			continue
		}
		lo, err1 := strconv.ParseUint(los, 16, 64)
		hi, err2 := strconv.ParseUint(his, 16, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, vma{lo: uintptr(lo), hi: uintptr(hi)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// touchBackings allocates n bytes of page backings the way Page.Bytes
// does, one [PageSize]byte at a time, and writes to each.
func touchBackings(n int) []*[PageSize]byte {
	out := make([]*[PageSize]byte, n/PageSize)
	for i := range out {
		out[i] = new([PageSize]byte)
		out[i][0] = 1
	}
	return out
}

// holding returns the mappings that hold any of the backings.
func holding(t *testing.T, backings []*[PageSize]byte) []vma {
	t.Helper()
	var out []vma
	for _, m := range readSmaps(t) {
		for _, b := range backings {
			if p := uintptr(unsafe.Pointer(b)); p >= m.lo && p < m.hi {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// hugeKB sums AnonHugePages over the mappings, and reports whether any of
// them is advised.
func hugeKB(ms []vma) (kb int64, advised bool) {
	for _, m := range ms {
		kb += m.anonHuge
		advised = advised || m.advised
	}
	return kb, advised
}

// TestReserveHuge checks the mechanism under the fleet: 32 MiB of page
// backings allocated after ReserveHuge(64 MiB) sit in a mapping with huge
// pages. Under THP mode [madvise] the same allocation without the reserve
// sits on 4 KiB pages only. That control runs first, and its backings stay
// live, because freed advised memory is reused and would pass it; where an
// earlier reserve in the process (-count) already advised the memory it
// lands in, the control says so and is skipped.
func TestReserveHuge(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages off: %q %v", mode, err)
	}
	var control []*[PageSize]byte
	if strings.Contains(string(mode), "[madvise]") {
		control = touchBackings(32 << 20)
		switch kb, advised := hugeKB(holding(t, control)); {
		case advised:
			t.Log("control skipped: an earlier ReserveHuge advised the memory it landed in")
		case kb != 0:
			t.Fatalf("without the reserve: AnonHugePages %d kB, want 0 under [madvise]", kb)
		}
	}
	ReserveHuge(64 << 20)
	reserved := touchBackings(32 << 20)
	kb, _ := hugeKB(holding(t, reserved))
	t.Logf("THP %s: 32 MiB of backings after ReserveHuge(64 MiB): AnonHugePages %d kB", strings.TrimSpace(string(mode)), kb)
	if kb == 0 {
		t.Fatal("after ReserveHuge: no huge pages under the backings")
	}
	runtime.KeepAlive(control)
}
