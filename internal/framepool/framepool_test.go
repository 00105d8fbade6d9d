package framepool

import (
	"bytes"
	"testing"

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
