// Package hotpath exercises the kitelint hotpath analyzer: annotated
// roots, transitive descent, the high-water scratch idiom, cold blocks,
// and the directive escapes.
package hotpath

import "fmt"

type pool struct {
	free    []*buf
	scratch []int
}

type buf struct{ n int }

type sink interface{ accept(v any) }

//kite:hotpath
func hot(p *pool, s sink, v int) *buf {
	bad := make([]byte, 64) // want `allocation \(make\)`
	_ = bad
	lit := []int{1, 2, 3} // want `slice literal allocation`
	_ = lit
	b := &buf{n: v}                  // want `heap allocation \(&composite literal\)`
	cb := func() { p.scratch = nil } // want `closure allocation`
	cb()
	s.accept(v)                      // want `interface boxing \(argument\)`
	s.accept(p)                      // a pointer is the interface's data word: clean
	p.scratch = append(p.scratch, v) // high-water scratch: clean
	ok := p.get()
	helper(p, v)
	if v < 0 {
		// This block terminates in panic, so it is cold: the Sprintf
		// call and its boxing are not steady-state allocations.
		panic(fmt.Sprintf("bad v %d", v))
	}
	warm(p)
	_ = ok
	return b
}

// helper is reached transitively from hot and checked just as strictly.
func helper(p *pool, v int) {
	m := map[int]int{} // want `map literal allocation`
	m[v] = v           // want `map insert`
	p.scratch = append(p.scratch, v)
}

// get grows its free list only until the high-water mark.
func (p *pool) get() *buf {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &buf{} //kite:alloc-ok fixture: pool growth on free-list miss
}

// warm runs once at connect time, never in steady state.
//
//kite:coldpath fixture: warmup only
func warm(p *pool) {
	p.free = make([]*buf, 0, 8)
}

// neverMarked is not reachable from a hot root; it may allocate freely.
func neverMarked() []byte { return make([]byte, 1) }
