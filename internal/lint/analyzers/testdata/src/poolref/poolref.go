// Package poolref exercises the kitelint pool ownership analysis against
// the real framepool API: leaks on early returns, double releases, and
// the legal endings (release, handoff, defer, retain).
package poolref

import "kite/internal/framepool"

func consume(b *framepool.Buf) {}

// leakOnEarlyReturn drops the buffer when n is negative.
func leakOnEarlyReturn(p *framepool.Pool, n int) {
	b := p.Get() // want `not released or handed off on every path`
	if n < 0 {
		return
	}
	b.Release()
}

// leakByLength drops a buffer taken by length when the frame is a runt.
func leakByLength(p *framepool.Pool, n int) {
	b := p.GetLen(n) // want `not released or handed off on every path`
	if n < 14 {
		return
	}
	b.Release()
}

// doubleRelease releases twice on the n<0 path.
func doubleRelease(p *framepool.Pool, n int) {
	b := p.Get()
	if n < 0 {
		b.Release()
	}
	b.Release() // want `double release`
}

// balanced releases exactly once on every path.
func balanced(p *framepool.Pool, n int) int {
	b := p.Get()
	if n < 0 {
		b.Release()
		return 0
	}
	n = b.Len()
	b.Release()
	return n
}

// handoff transfers ownership to consume; no Release required here.
func handoff(p *framepool.Pool) {
	b := p.Get()
	consume(b)
}

// deferred releases via defer on all return paths.
func deferred(p *framepool.Pool, n int) int {
	b := p.Get()
	defer b.Release()
	if n < 0 {
		return -1
	}
	return b.Len()
}

// retained hands a second reference to another holder before releasing
// its own.
func retained(p *framepool.Pool, keep func(*framepool.Buf)) {
	b := p.Get()
	keep(b.Retain())
	b.Release()
}

// loopBalanced acquires and releases inside one loop iteration.
func loopBalanced(p *framepool.Pool, rounds int) {
	for i := 0; i < rounds; i++ {
		b := p.Get()
		consume(b.Retain())
		b.Release()
	}
}
