package bridge

import (
	"fmt"
	"slices"
	"testing"

	"kite/internal/sim"
)

// TestTrunkAgainstRebuild runs random programs of attach, isolate,
// un-isolate and detach — isolating ports not attached yet, isolating one
// twice, clearing a flag never set — and after every step holds the trunk,
// kept incrementally, to the rebuild model: the attached ports that are not
// isolated, in attach order, which is the order a flood visits them.
func TestTrunkAgainstRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRand(seed)
		b := New(sim.NewEngine(), nil, "xenbr0")
		var pool []*fakePort // every port made so far, attached or not
		var attached []*fakePort
		iso := map[*fakePort]bool{}
		for step := 0; step < 60; step++ {
			var p *fakePort
			if len(pool) > 0 {
				p = pool[rng.Intn(len(pool))]
			}
			op := rng.Intn(5)
			switch {
			case op == 0 || p == nil:
				p = &fakePort{name: fmt.Sprintf("vif%d.0", len(pool))}
				pool = append(pool, p)
				if rng.Intn(3) == 0 {
					b.SetIsolated(p, true) // isolated before it is attached
					iso[p] = true
				}
				b.AddPort(p)
				attached = append(attached, p)
			case op == 1 || op == 2:
				b.SetIsolated(p, true)
				iso[p] = true
			case op == 3:
				b.SetIsolated(p, false)
				delete(iso, p)
			case slices.Contains(attached, p):
				b.RemovePort(p)
				attached = slices.DeleteFunc(attached, func(q *fakePort) bool { return q == p })
				delete(iso, p)
			default: // re-attach a detached port
				b.AddPort(p)
				attached = append(attached, p)
			}
			var want []Port
			for _, q := range attached {
				if !iso[q] {
					want = append(want, q)
				}
			}
			if !slices.Equal(b.trunk, want) {
				t.Fatalf("seed %d step %d (op %d on %s): trunk %v, want %v", seed, step, op, p.name, names(b.trunk), names(want))
			}
		}
	}
}

func names(ps []Port) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.PortName()
	}
	return out
}
