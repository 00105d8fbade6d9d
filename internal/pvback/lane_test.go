package pvback

import (
	"math/rand"
	"testing"

	"kite/internal/sim"
	"kite/internal/xen"
)

// laneRig is a lane in a driver domain with a guest to bind member
// doorbells to. Tests drive rounds by calling l.round() themselves, so each
// round can be checked against the model; the worker's own wakes drain at
// the end.
type laneRig struct {
	eng   *sim.Engine
	dd    *xen.Domain
	guest *xen.Domain
	l     *Lane
	log   []string // "serve"/"end"/"flush" in call order, for the current round
}

func newLaneRig(quantum int) *laneRig {
	r := &laneRig{eng: sim.NewEngine()}
	hv := xen.New(r.eng)
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 16 << 20, Privileged: true})
	r.dd = hv.CreateDomain(xen.DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 16 << 20})
	r.guest = hv.CreateDomain(xen.DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 16 << 20})
	r.l = NewLane(0, r.dd, r.eng, r.dd.CPUs.CPU(0), sim.Microsecond, quantum,
		func() { r.log = append(r.log, "end") })
	return r
}

// fakeMember serves unit-cost items of one size from a backlog counter.
type fakeMember struct {
	r        *laneRig
	port     xen.Port
	slot     int32
	size     int // cost of one item, in the lane's unit
	backlog  int // items waiting
	served   int // items served, lifetime
	owes     int // Owe calls to make per Serve
	flushes  int // Flush calls, lifetime
	detached bool
	t        *testing.T
}

func (m *fakeMember) Serve(deficit int) (used int, more bool) {
	if m.detached {
		m.t.Fatalf("member in slot %d served after detach", m.slot)
	}
	if !m.r.l.InRound() {
		m.t.Fatal("Serve outside a round")
	}
	m.r.log = append(m.r.log, "serve")
	for used < deficit && m.backlog > 0 {
		m.backlog--
		m.served++
		used += m.size
	}
	for i := 0; i < m.owes; i++ {
		m.r.l.Owe(m.slot)
	}
	return used, m.backlog > 0
}

func (m *fakeMember) Flush() {
	if m.r.l.InRound() {
		m.t.Fatal("Flush while members are still being served")
	}
	m.r.log = append(m.r.log, "flush")
	m.flushes++
}

func (r *laneRig) join(t *testing.T, size int) *fakeMember {
	t.Helper()
	port, err := r.dd.BindInterdomain(r.guest.ID, r.guest.AllocUnbound(r.dd.ID))
	if err != nil {
		t.Fatal(err)
	}
	m := &fakeMember{r: r, port: port, size: size, t: t}
	if m.slot, err = r.l.Join(port, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// ringOrder walks the active ring from the head and checks both link
// directions on the way.
func ringOrder(t *testing.T, l *Lane) []int32 {
	t.Helper()
	var out []int32
	if l.head < 0 {
		return out
	}
	for s := l.head; ; {
		out = append(out, s)
		next := l.members[s].next
		if l.members[next].prev != s {
			t.Fatalf("slot %d: next is %d, whose prev is %d", s, next, l.members[next].prev)
		}
		if s = next; s == l.head {
			return out
		}
		if len(out) > len(l.members) {
			t.Fatal("active ring does not close")
		}
	}
}

// TestLaneAgainstModel drives a random join/activate/round/detach sequence
// and checks the lane against a plain-slice model after every step: the
// ring holds exactly the backlogged members in activation order, activeN
// counts them, a drained member leaves and forfeits its deficit while a
// member stopped by its budget keeps its place and its credit, detached
// slots are recycled last-freed-first, and a detached member is never
// served again.
func TestLaneAgainstModel(t *testing.T) {
	const quantum = 8
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newLaneRig(quantum)
		l := r.l
		var live []*fakeMember
		var active []*fakeMember // the model's ring, activation order
		deficit := map[*fakeMember]int{}
		var freed []int32

		check := func(step string) {
			t.Helper()
			got := ringOrder(t, l)
			if len(got) != len(active) || l.activeN != len(active) {
				t.Fatalf("seed %d, %s: ring %v (activeN %d), model has %d active", seed, step, got, l.activeN, len(active))
			}
			for i, m := range active {
				if got[i] != m.slot {
					t.Fatalf("seed %d, %s: ring %v, model wants slot %d at %d", seed, step, got, m.slot, i)
				}
				if l.members[m.slot].deficit != deficit[m] {
					t.Fatalf("seed %d, %s: slot %d carries deficit %d, model %d", seed, step, m.slot, l.members[m.slot].deficit, deficit[m])
				}
			}
			if l.Members() != len(live) {
				t.Fatalf("seed %d, %s: demux has %d members, model %d", seed, step, l.Members(), len(live))
			}
		}
		isActive := func(m *fakeMember) bool {
			for _, a := range active {
				if a == m {
					return true
				}
			}
			return false
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 2 || len(live) == 0: // join
				m := r.join(t, 1+rng.Intn(3))
				if n := len(freed); n > 0 {
					if m.slot != freed[n-1] {
						t.Fatalf("seed %d: join got slot %d, want recycled slot %d", seed, m.slot, freed[n-1])
					}
					freed = freed[:n-1]
				} else if int(m.slot) != len(l.members)-1 {
					t.Fatalf("seed %d: join got slot %d with no free slot, slab has %d", seed, m.slot, len(l.members))
				}
				live = append(live, m)
				check("join")
			case op < 6: // doorbell: work arrives for a random member
				m := live[rng.Intn(len(live))]
				m.backlog += 1 + rng.Intn(3*quantum)
				l.Activate(m.slot)
				if !isActive(m) {
					active = append(active, m)
				}
				check("activate")
			case op < 9: // one round
				want := l.rounds
				if len(active) > 0 {
					want++
				}
				var still []*fakeMember
				for _, m := range active {
					d := deficit[m] + quantum
					items := min(m.backlog, (d+m.size-1)/m.size)
					d -= items * m.size
					if m.backlog-items > 0 {
						deficit[m] = d
						still = append(still, m)
					} else {
						delete(deficit, m)
					}
				}
				active = still
				l.round()
				if l.rounds != want {
					t.Fatalf("seed %d: rounds = %d, want %d", seed, l.rounds, want)
				}
				check("round")
			default: // a tenant departs, backlogged or not
				i := rng.Intn(len(live))
				m := live[i]
				live = append(live[:i], live[i+1:]...)
				for j, a := range active {
					if a == m {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
				delete(deficit, m)
				l.Detach(m.port, m.slot)
				m.detached = true
				freed = append(freed, m.slot)
				check("detach")
			}
		}
		// Whatever backlog is left drains through the worker's own wakes.
		r.eng.Run()
		for _, m := range live {
			if m.backlog != 0 {
				t.Fatalf("seed %d: slot %d left with %d items after the worker ran dry", seed, m.slot, m.backlog)
			}
		}
		if l.activeN != 0 || l.head != -1 {
			t.Fatalf("seed %d: ring not empty at rest (activeN %d, head %d)", seed, l.activeN, l.head)
		}
	}
}

// TestLaneMinShareUnderHeavyMember puts three tenants beside one offering
// ten times their load: by the round in which the light tenants finish,
// each has been served in full and the heavy one has had no more than the
// same service plus what one round allots.
func TestLaneMinShareUnderHeavyMember(t *testing.T) {
	const quantum, light = 16, 400
	r := newLaneRig(quantum)
	heavy := r.join(t, 3)
	heavy.backlog = 10 * light
	var lights []*fakeMember
	for i := 0; i < 3; i++ {
		m := r.join(t, 3)
		m.backlog = light
		lights = append(lights, m)
	}
	r.l.Activate(heavy.slot)
	for _, m := range lights {
		r.l.Activate(m.slot)
	}
	for lights[0].backlog > 0 {
		r.l.round()
	}
	for i, m := range lights {
		if m.served != light {
			t.Fatalf("light tenant %d served %d of %d items when the first finished", i, m.served, light)
		}
	}
	if perRound := (quantum + heavy.size - 1) / heavy.size; heavy.served > light+perRound {
		t.Fatalf("heavy tenant served %d items while the others got %d: more than its share", heavy.served, light)
	}
	if share := float64(lights[0].served) / float64(heavy.served); share < 0.98 {
		t.Fatalf("min share %.3f", share)
	}
	r.eng.Run()
	if heavy.backlog != 0 {
		t.Fatalf("heavy tenant left with %d items", heavy.backlog)
	}
}

// TestLaneFlushesOncePerOwedMember: a round serves every member, then runs
// the end-of-round hook once, then flushes exactly the members that asked —
// once each, however often they asked.
func TestLaneFlushesOncePerOwedMember(t *testing.T) {
	r := newLaneRig(4)
	owing := r.join(t, 1)
	owing.owes = 5
	quiet := r.join(t, 1)
	for _, m := range []*fakeMember{owing, quiet} {
		m.backlog = 20
		r.l.Activate(m.slot)
	}
	for round := 1; round <= 3; round++ {
		r.log = r.log[:0]
		r.l.round()
		want := []string{"serve", "serve", "end", "flush"}
		if len(r.log) != len(want) {
			t.Fatalf("round %d: calls %v, want %v", round, r.log, want)
		}
		for i := range want {
			if r.log[i] != want[i] {
				t.Fatalf("round %d: calls %v, want %v", round, r.log, want)
			}
		}
		if owing.flushes != round || quiet.flushes != 0 {
			t.Fatalf("round %d: flushes owing=%d quiet=%d", round, owing.flushes, quiet.flushes)
		}
	}
	// A debt is settled by its flush: a round in which nobody asks flushes
	// nobody.
	owing.owes = 0
	r.l.round()
	if owing.flushes != 3 {
		t.Fatalf("member flushed %d times over 3 owing rounds and one quiet one", owing.flushes)
	}
}
