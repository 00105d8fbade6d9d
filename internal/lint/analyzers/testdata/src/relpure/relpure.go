// Package relpure exercises the kitelint PriRelease purity check: handlers
// posted at sim.PriRelease run at the cluster barrier and must be pure
// local bookkeeping — no scheduling, no posting, no unvetted calls.
package relpure

import (
	"fmt"
	"sync/atomic"

	"kite/internal/sim"
)

type buf struct {
	pool *pool
	next *buf
}

type pool struct {
	free     []*buf
	recycled atomic.Uint64

	// freeF is the long-lived release handler, bound once below — the
	// analyzer must resolve the field to its assigned literal.
	freeF func(any)
}

// recycleArg is the sanctioned shape: a package-level handler doing pool
// bookkeeping and a counter increment. Clean.
var recycleArg = func(a any) {
	b := a.(*buf)
	b.pool.free = append(b.pool.free, b)
	b.pool.recycled.Add(1)
}

func releaseClean(local, home *sim.Engine, b *buf) {
	local.Post(home, 1, sim.PriRelease, recycleArg, b)
}

// releaseReposts posts an event from inside a release handler: the barrier
// would re-enter the scheduler.
func releaseReposts(local, home *sim.Engine, b *buf) {
	local.Post(home, 1, sim.PriRelease, func(a any) {
		local.Post(home, 1, sim.PriData, recycleArg, a) // want `re-enters the scheduler via sim\.Post`
	}, b)
}

// releaseSchedules wakes the destination shard's timeline directly.
func releaseSchedules(local, home *sim.Engine) {
	local.Post(home, 1, sim.PriRelease, func(any) {
		home.Schedule(0, func() {}) // want `re-enters the scheduler via sim\.Schedule`
	}, nil)
}

// bindField stores a dirty handler in a struct field; the Post site names
// only the field, so resolution must find this assignment.
func bindField(p *pool, local, home *sim.Engine) {
	p.freeF = func(a any) {
		home.After(0, func() {}) // want `re-enters the scheduler via sim\.After`
	}
	local.Post(home, 1, sim.PriRelease, p.freeF, nil)
}

// releaseCallsOut leaves the vetted external surface.
func releaseCallsOut(local, home *sim.Engine, b *buf) {
	local.Post(home, 1, sim.PriRelease, func(a any) {
		fmt.Println("recycled") // want `calls fmt\.Println outside the module`
	}, b)
}

// releaseIndirect launders the impurity through a func value the analyzer
// cannot resolve.
func releaseIndirect(local, home *sim.Engine, cb func()) {
	local.Post(home, 1, sim.PriRelease, func(any) {
		cb() // want `indirect call that cannot be proven pure`
	}, nil)
}

// dataPostsAreNotChecked: PriData handlers go through the inbox and run on
// the shard like any event; relpure does not apply.
func dataPostsAreNotChecked(local, home *sim.Engine) {
	local.Post(home, 1, sim.PriData, func(any) {
		home.Schedule(0, func() {})
	}, nil)
}
