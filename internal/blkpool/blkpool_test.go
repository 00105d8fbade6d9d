package blkpool

import "testing"

func TestClassRounding(t *testing.T) {
	p := New()
	cases := []struct{ n, wantCap int }{
		{512, 4096},
		{4096, 4096},
		{4608, 8192},
		{44 << 10, 64 << 10},
		{1 << 20, 1 << 20},
		{4 << 20, 4 << 20},
	}
	for _, c := range cases {
		b := p.Get(c.n)
		if b.Cap() != c.wantCap {
			t.Errorf("Get(%d): cap = %d, want %d", c.n, b.Cap(), c.wantCap)
		}
		if b.Len() != c.n {
			t.Errorf("Get(%d): len = %d", c.n, b.Len())
		}
		b.Release()
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
}

func TestLIFOReuseIsDeterministic(t *testing.T) {
	p := New()
	a := p.Get(4096)
	a.Release()
	b := p.Get(4096)
	if a != b {
		t.Fatal("freed buffer not reused LIFO")
	}
	if p.Fresh() != 1 || p.Gets() != 2 {
		t.Fatalf("fresh=%d gets=%d, want 1/2", p.Fresh(), p.Gets())
	}
	b.Release()
}

func TestSizeClassesDoNotMix(t *testing.T) {
	p := New()
	small := p.Get(4096)
	small.Release()
	big := p.Get(64 << 10)
	if big == small {
		t.Fatal("64 KiB request served from the 4 KiB class")
	}
	big.Release()
	if got := p.Get(64 << 10); got != big {
		t.Fatal("64 KiB class did not recycle its own buffer")
	} else {
		got.Release()
	}
}

func TestRefcounting(t *testing.T) {
	p := New()
	b := p.Get(4096)
	b.Retain()
	b.Release()
	if p.Outstanding() != 1 {
		t.Fatal("buffer returned while a reference remained")
	}
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("release below zero did not panic")
		}
	}()
	b.Release()
}

func TestOversizedFallsBackToOneOff(t *testing.T) {
	p := New()
	b := p.Get(8 << 20)
	if b.Cap() != 8<<20 {
		t.Fatalf("cap = %d", b.Cap())
	}
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatal("oversized release not accounted")
	}
	if c := p.Get(8 << 20); c == b {
		t.Fatal("oversized buffer must not be pooled")
	} else {
		c.Release()
	}
}

func TestBadSizePanics(t *testing.T) {
	p := New()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Get did not panic")
		}
	}()
	p.Get(100)
}
