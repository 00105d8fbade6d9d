package core

import (
	"testing"

	"kite/internal/netstack"
	"kite/internal/sim"
)

// fleetCounts is what a run of one-frame-per-tenant waves cost in the
// exact counts of the event core, and the simulated time it took.
type fleetCounts struct {
	frames, posts, events, rounds uint64
	elapsed                       sim.Time
}

// countFleetWaves warms a fleet of the given size, then drives waves of one
// 128 B datagram per tenant and returns the counter deltas. Counts are
// simulated, so they repeat exactly for a seed on any host.
func countFleetWaves(t *testing.T, guests, waves int) fleetCounts {
	t.Helper()
	rig, err := NewFleetRig(FleetConfig{Guests: guests, Lanes: 4, Seed: 0xf1ee7})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.System
	var delivered uint64
	rig.Client.Stack.BindUDP(9000, func(netstack.UDPPacket) { delivered++ })
	payload := pattern(128)
	wave := func(w int) {
		for _, g := range rig.Guests {
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+w%64), payload)
		}
		sys.Eng.Run()
	}
	rounds := func() (n uint64) {
		for _, l := range rig.ND.Driver.Lanes() {
			n += l.Rounds()
		}
		return n
	}
	for w := 0; w < 8; w++ { // pools, slots, FDB, ARP, lane lists
		wave(w)
	}
	delivered = 0
	c := fleetCounts{posts: sys.Cluster.Posted(), events: sys.Eng.Processed(), rounds: rounds(), elapsed: sys.Eng.Now()}
	for w := 0; w < waves; w++ {
		wave(w)
	}
	c = fleetCounts{frames: delivered, posts: sys.Cluster.Posted() - c.posts,
		events: sys.Eng.Processed() - c.events, rounds: rounds() - c.rounds,
		elapsed: sys.Eng.Now() - c.elapsed}
	if c.frames != uint64(guests*waves) {
		t.Fatalf("%d guests: delivered %d of %d frames", guests, c.frames, guests*waves)
	}
	if n := sys.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d guests: %d frame buffers outstanding", guests, n)
	}
	return c
}

// TestFleetPerFrameCostHasNoTenantTerm is the deterministic scaling gate of
// the fleet data path: what one more tenant's frame costs the event core —
// cross-shard posts and events — must be the frame's own hand-offs and
// nothing kept per tenant beside them.
//
// A wave of one frame per tenant is one DRR round per lane, and a round has
// costs of its own that do not depend on its size (the carrier's post out
// and home, a release flush per window, the worker's wake-ups), so a plain
// average per frame carries a share of a round that shrinks with the fleet
// (at 16 guests a frame carries a quarter of a round and reads 2.2 posts and
// 6.75 events, whatever is or is not per tenant). The gate therefore prices
// the frames that growing the fleet adds: (cost at 256 − cost at 16) ÷
// (frames at 256 − frames at 16), rounds being equal. One netfront hand-off
// post and six events is the floor of this pipeline; with a carrier, a
// carrier return and a release flush per tenant it read 5.0 and 7.0. The
// same price must hold over the step from 16 to 64 tenants and the step
// from 64 to 256 — a term that grew with the fleet would show as a
// difference between the two.
func TestFleetPerFrameCostHasNoTenantTerm(t *testing.T) {
	const waves = 32
	c16 := countFleetWaves(t, 16, waves)
	c64 := countFleetWaves(t, 64, waves)
	c256 := countFleetWaves(t, 256, waves)
	if c16.rounds != c64.rounds || c64.rounds != c256.rounds {
		t.Fatalf("DRR rounds differ with fleet size (%d, %d, %d): the marginal cost below would mix in whole rounds",
			c16.rounds, c64.rounds, c256.rounds)
	}
	marginal := func(a, b fleetCounts) (posts, events float64) {
		df := float64(b.frames - a.frames)
		return float64(b.posts-a.posts) / df, float64(b.events-a.events) / df
	}
	posts, events := marginal(c16, c256)
	t.Logf("per added frame, 16 -> 256 guests: %.4f posts, %.4f events (averages at 256: %.4f, %.4f)",
		posts, events, float64(c256.posts)/float64(c256.frames), float64(c256.events)/float64(c256.frames))
	if posts > 1.05 {
		t.Errorf("a tenant's frame costs %.4f cluster posts, want <= 1.05", posts)
	}
	if events > 6.05 {
		t.Errorf("a tenant's frame costs %.4f events, want <= 6.05", events)
	}
	loP, loE := marginal(c16, c64)
	hiP, hiE := marginal(c64, c256)
	for _, m := range []struct {
		name   string
		lo, hi float64
	}{{"posts", loP, hiP}, {"events", loE, hiE}} {
		if d := (m.hi - m.lo) / m.lo; d > 0.02 || d < -0.02 {
			t.Errorf("%s per added frame: %.4f from 16 to 64 guests, %.4f from 64 to 256 (%+.1f%%, want within 2%%)",
				m.name, m.lo, m.hi, 100*d)
		}
	}
}

// TestFleetVirtualCostIsFlat is the O(active) gate in simulated time: the
// driver-domain time one tenant's frame costs at 1024 tenants stays within
// 1.25x of what it costs at 64 (it reads about 501 ns against 558: a
// lane round's fixed cost spreads over more frames). Simulated time, so the
// ratio is the same on any host.
func TestFleetVirtualCostIsFlat(t *testing.T) {
	const waves = 32
	perFrame := func(c fleetCounts) float64 { return float64(c.elapsed) / float64(c.frames) }
	small, big := perFrame(countFleetWaves(t, 64, waves)), perFrame(countFleetWaves(t, 1024, waves))
	t.Logf("simulated ns per frame: %.1f at 64 tenants, %.1f at 1024 (ratio %.3f)", small, big, big/small)
	if big > 1.25*small {
		t.Errorf("a frame costs %.1f simulated ns at 1024 tenants, above 1.25x the %.1f at 64", big, small)
	}
}
