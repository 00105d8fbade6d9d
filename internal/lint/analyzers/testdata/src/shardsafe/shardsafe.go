// Package shardsafe exercises the kitelint shard-confinement check:
// shard-executed handlers must not write globals and must not schedule
// through foreign components.
package shardsafe

import "kite/internal/sim"

// queue is an engine-bearing component: it owns a scheduling handle.
type queue struct {
	eng   *sim.Engine
	depth int
}

// peer is another engine-bearing component that also references a queue,
// so reaching p.q.eng crosses an ownership boundary.
type peer struct {
	eng *sim.Engine
	q   *queue
}

// hits is a global: any shard-reachable write is shared with every other
// simulation in the process.
var hits int

func onEvent(e *sim.Engine, p *peer) {
	e.Schedule(0, func() {
		hits++                         // want `shard-reachable code writes package-level var hits`
		p.depth()                      // descend into a named helper
		p.eng.Schedule(1, func() {})   // one hop: self-scheduling, clean
		p.q.eng.Schedule(1, func() {}) // want `Schedule reaches through 2 engine-bearing components`
	})
}

// depth is reached from the handler above; rule 1 follows the call.
func (p *peer) depth() {
	hits = p.q.depth // want `shard-reachable code writes package-level var hits`
}

// setup is not registered on the event machinery: what it writes before
// the simulation starts is nobody's race.
func setup() { hits = 0 }

// postHandlers are shard roots too: the handler runs on the destination
// shard.
func postSide(local, dst *sim.Engine) {
	local.Post(dst, 1, sim.PriData, func(any) {
		hits++ // want `shard-reachable code writes package-level var hits`
	}, nil)
}
