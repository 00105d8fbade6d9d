package framepool

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"kite/internal/sim"
)

func TestGetReleaseRecycles(t *testing.T) {
	p := New()
	b := p.Get()
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", p.Outstanding())
	}
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", p.Outstanding())
	}
	b2 := p.Get()
	if b2 != b {
		t.Fatalf("expected LIFO recycle of the same buffer")
	}
	if b2.Len() != 0 {
		t.Fatalf("recycled buffer not reset: len %d", b2.Len())
	}
	b2.Release()
	if p.Gets() != 2 || p.Recycled() != 2 {
		t.Fatalf("gets=%d recycled=%d, want 2/2", p.Gets(), p.Recycled())
	}
}

func TestRetainRelease(t *testing.T) {
	p := New()
	b := p.Get()
	b.Retain()
	b.Release()
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after one of two releases, want 1", p.Outstanding())
	}
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", p.Outstanding())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New()
	b := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release did not panic")
		}
	}()
	b.Release()
}

func TestExtendPrependTrim(t *testing.T) {
	p := New()
	b := p.Get()
	copy(b.Extend(5), "hello")
	copy(b.Prepend(3), "abc")
	if !bytes.Equal(b.Bytes(), []byte("abchello")) {
		t.Fatalf("payload = %q", b.Bytes())
	}
	b.Trim(3)
	if !bytes.Equal(b.Bytes(), []byte("abc")) {
		t.Fatalf("after trim payload = %q", b.Bytes())
	}
	b.Release()
}

func TestExtendOverflowPanics(t *testing.T) {
	p := New()
	b := p.Get()
	defer b.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("Extend past capacity did not panic")
		}
	}()
	b.Extend(MaxFrame + 1)
}

func TestPrependUnderflowPanics(t *testing.T) {
	p := New()
	b := p.Get()
	defer b.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("Prepend past headroom did not panic")
		}
	}()
	b.Prepend(Headroom + 1)
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	p := New()
	// Warm the free list.
	p.Get().Release()
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get()
		copy(b.Extend(64), "x")
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Release allocates %.1f/op, want 0", allocs)
	}
}

// A buffer goes home where it dies: the last reference of a buffer taken on
// shard 0 is dropped by an event on shard 1, and the next Get of that same
// event — no barrier in between — hands the buffer out again.
func TestReleaseRecyclesInPlaceAcrossShards(t *testing.T) {
	c := sim.NewCluster(2, sim.Microsecond, 1)
	home, far := c.Shard(0), c.Shard(1)
	p := New()
	held := p.Get() // keeps Outstanding off zero so the check below is not vacuous
	ran := false
	drop := func(a any) {
		ran = true
		b := a.(*Buf)
		before := p.Outstanding()
		b.Release()
		if got := p.Outstanding(); got != before-1 {
			t.Errorf("Outstanding = %d right after the remote release, want %d", got, before-1)
		}
		if again := p.Get(); again != b {
			t.Error("Get after a remote release allocated instead of recycling the buffer just released")
		} else {
			again.Release()
		}
	}
	home.After(sim.Microsecond, func() { home.Post(far, sim.Microsecond, sim.PriData, drop, p.Get()) })
	c.Run()
	if !ran {
		t.Fatal("the shard-1 event never ran")
	}
	held.Release()
	if p.Outstanding() != 0 || p.Gets() != p.Recycled() {
		t.Fatalf("Outstanding = %d, gets %d, recycled %d after the run", p.Outstanding(), p.Gets(), p.Recycled())
	}
}

// The class sizes are worked out from the header's size; a field added to
// Buf moves every class across its Go size class unless they follow.
func TestHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Buf{}); got != headerSize {
		t.Fatalf("Buf header is %d B, the classes are sized for %d B", got, headerSize)
	}
}

// classCap is each class's capacity, smallest first.
var classCap = [numClasses]int{SmallFrame, MTUFrame, MaxFrame}

// Each class's first Get allocates exactly one object that fills its Go size
// class: the header and bytes in one allocation, nothing rounded up past it.
func TestClassAllocBytes(t *testing.T) {
	const n = 256
	for c, want := range [numClasses]uint64{384, 2304, 4864} {
		p := New()
		held := make([]*Buf, 0, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			held = append(held, p.GetLen(classCap[c]))
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per != want {
			t.Errorf("class %d (capacity %d B): %d B allocated a first Get, want %d", c, classCap[c], per, want)
		}
		for _, b := range held {
			b.Release()
		}
	}
}

// Every payload length from 0 to MaxFrame gets the smallest class that holds
// it, and the buffer takes that payload and a full Headroom of headers.
func TestGetLenPicksSmallestClass(t *testing.T) {
	p := New()
	for n := 0; n <= MaxFrame; n++ {
		b := p.GetLen(n)
		c := int(b.class)
		if b.Cap() != classCap[c] || b.Cap() < n || (c > 0 && classCap[c-1] >= n) {
			t.Fatalf("GetLen(%d) gave class %d (capacity %d B)", n, c, b.Cap())
		}
		b.Extend(n)
		b.Prepend(Headroom)
		if b.Len() != n+Headroom {
			t.Fatalf("GetLen(%d): payload %d B after Extend and Prepend", n, b.Len())
		}
		b.Release()
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", p.Outstanding())
	}
}

// Extend past a class's capacity panics in every class.
func TestExtendPastClassPanics(t *testing.T) {
	p := New()
	for _, capacity := range classCap {
		b := p.GetLen(capacity)
		b.Extend(capacity)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Extend one byte past a %d B class did not panic", capacity)
				}
			}()
			b.Extend(1)
		}()
		b.Release()
	}
}

// A buffer goes back on its own class's list: a release of one class is not
// handed out for another.
func TestReleaseReturnsToOwnClass(t *testing.T) {
	p := New()
	small := p.GetLen(64)
	small.Release()
	if page := p.GetLen(MaxFrame); page == small {
		t.Fatal("a page-class Get recycled the small buffer just released")
	} else {
		page.Release()
	}
	if again := p.GetLen(SmallFrame); again != small {
		t.Fatal("a small-class Get did not recycle the small buffer just released")
	} else {
		again.Release()
	}
	if mtu := p.GetLen(SmallFrame + 1); mtu.Cap() != MTUFrame {
		t.Fatalf("GetLen(%d) capacity %d B, want the MTU class's %d", SmallFrame+1, mtu.Cap(), MTUFrame)
	} else {
		mtu.Release()
	}
}
