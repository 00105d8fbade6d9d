package framepool

import (
	"bytes"
	"testing"
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

func TestFrom(t *testing.T) {
	p := New()
	b := p.From([]byte("payload"))
	if !bytes.Equal(b.Bytes(), []byte("payload")) {
		t.Fatalf("From payload = %q", b.Bytes())
	}
	b.Release()
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

func TestArenaPartitioning(t *testing.T) {
	p := New()
	a0, a1 := p.NewArena(), p.NewArena()
	b0, b1 := a0.Get(), a1.Get()
	if p.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2 (arena gets must hit parent accounting)", p.Outstanding())
	}
	b0.Release()
	b1.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after arena releases, want 0", p.Outstanding())
	}
	if a0.Free() != 1 || a1.Free() != 1 || p.root.Free() != 0 {
		t.Fatalf("buffers not parked in their own arenas: a0=%d a1=%d shared=%d",
			a0.Free(), a1.Free(), p.root.Free())
	}
	// A buffer stays bound to its arena across reuse.
	if got := a0.Get(); got != b0 {
		t.Fatal("arena did not recycle its own buffer LIFO")
	} else {
		got.Release()
	}
}

func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	p := New()
	a := p.NewArena()
	a.Get().Release()
	allocs := testing.AllocsPerRun(100, func() {
		b := a.Get()
		copy(b.Extend(64), "x")
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena Get/Release allocates %.1f/op, want 0", allocs)
	}
}
