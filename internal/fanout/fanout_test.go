package fanout

import (
	"sync/atomic"
	"testing"
)

func TestEachReturnsByIndexWithinBound(t *testing.T) {
	const workers, n = 3, 40
	p := NewPool(workers)
	var running, peak atomic.Int32
	got := Each(p, n, func(i int) int {
		now := running.Add(1)
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		// A nested Pair must not deadlock however full the pool is.
		var a, b int
		p.Pair(func() { a = i }, func() { b = i })
		running.Add(-1)
		return a + b
	})
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("result %d = %d, want %d", i, v, 2*i)
		}
	}
	if peak.Load() > workers {
		t.Fatalf("%d closures ran at once, bound is %d", peak.Load(), workers)
	}
}

func TestPairWithoutPoolRunsInlineInOrder(t *testing.T) {
	var order []string
	var p *Pool
	p.Pair(func() { order = append(order, "a") }, func() { order = append(order, "b") })
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestCountAccumulates(t *testing.T) {
	before := Counted()
	Each(NewPool(4), 8, func(i int) struct{} { Count(uint64(i)); return struct{}{} })
	if got := Counted() - before; got != 28 {
		t.Fatalf("tally grew by %d, want 28", got)
	}
}
