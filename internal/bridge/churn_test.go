package bridge

import (
	"testing"

	"kite/internal/netpkt"
	"kite/internal/sim"
)

// churnMAC returns the k-th synthetic tenant MAC, distinct from the fixed
// macA/macB/macC addresses used elsewhere in the package.
func churnMAC(k int) netpkt.MAC {
	return netpkt.MAC{2, 0, byte(k >> 16), byte(k >> 8), byte(k), 1}
}

// learnOn drives one frame from port p with source churnMAC(k) toward a
// known unicast destination, so the FDB learns the MAC without flooding.
func learnOn(b *Bridge, p Port, dst netpkt.MAC, k int) {
	b.Input(p, frame(dst, churnMAC(k), "churn"))
}

// TestFDBChurnAgingEvictsIdle fills the FDB with a fleet's worth of
// learned MACs, refreshes a quarter of them, and checks the periodic
// AgeFDB sweep evicts exactly the idle remainder — the mechanism that
// keeps short-lived tenants from pinning table space forever.
func TestFDBChurnAgingEvictsIdle(t *testing.T) {
	eng, b, p1, p2, _ := newBridge()
	const n = 2048

	// Anchor macA on p1 so churn traffic forwards instead of flooding.
	b.Input(p1, frame(macB, macA, "seed"))
	eng.Run()
	for k := 0; k < n; k++ {
		learnOn(b, p2, macA, k)
	}
	eng.Run()
	if got := b.FDBLen(); got != n+1 {
		t.Fatalf("FDBLen = %d after fill, want %d", got, n+1)
	}

	eng.RunUntil(30 * sim.Second)
	refreshed := 0
	for k := 0; k < n; k += 4 { // keep every 4th tenant active
		learnOn(b, p2, macA, k)
		refreshed++
	}
	b.Input(p1, frame(macB, macA, "keepalive"))
	eng.Run()

	eng.RunUntil(60 * sim.Second)
	aged := b.AgeFDB(45 * sim.Second)
	if want := n - refreshed; aged != want {
		t.Fatalf("aged %d entries, want %d", aged, want)
	}
	if got := b.FDBLen(); got != refreshed+1 {
		t.Fatalf("FDBLen = %d after sweep, want %d", got, refreshed+1)
	}
	if b.Stats().Aged != uint64(n-refreshed) {
		t.Fatalf("Stats.Aged = %d, want %d", b.Stats().Aged, n-refreshed)
	}
	if b.Lookup(churnMAC(0)) == nil {
		t.Fatal("refreshed MAC evicted")
	}
	if b.Lookup(churnMAC(1)) != nil {
		t.Fatal("idle MAC survived the sweep")
	}
	if got := testPool.Outstanding(); got != 0 {
		t.Fatalf("%d frame buffers leaked", got)
	}
}

// fdbSlotTotal reports the record capacity across shards — the memory
// footprint of the table, as opposed to its live entry count.
func fdbSlotTotal(b *Bridge) int { return b.fdb.Cap() }

// TestFDBChurnSteadyStateCapacity cycles a full fleet of MACs through
// learn-then-evict rounds and asserts the table's slot capacity stops
// growing after the first fill: churn must recycle slots at the
// high-water mark, not leak capacity round over round.
func TestFDBChurnSteadyStateCapacity(t *testing.T) {
	eng, b, p1, p2, _ := newBridge()
	const n = 2048

	fill := func() {
		b.Input(p1, frame(macB, macA, "seed"))
		for k := 0; k < n; k++ {
			learnOn(b, p2, macA, k)
		}
		eng.Run()
	}
	fill()
	capacity := fdbSlotTotal(b)

	for cycle := 1; cycle <= 6; cycle++ {
		eng.RunUntil(eng.Now() + 120*sim.Second)
		b.AgeFDB(60 * sim.Second)
		if got := b.FDBLen(); got != 0 {
			t.Fatalf("cycle %d: %d entries survived a full sweep", cycle, got)
		}
		p1.got, p2.got = nil, nil
		fill()
		if got := b.FDBLen(); got != n+1 {
			t.Fatalf("cycle %d: FDBLen = %d after refill, want %d", cycle, got, n+1)
		}
		if got := fdbSlotTotal(b); got != capacity {
			t.Fatalf("cycle %d: slot capacity %d, want stable %d", cycle, got, capacity)
		}
	}
	if got := testPool.Outstanding(); got != 0 {
		t.Fatalf("%d frame buffers leaked", got)
	}
}

// TestFDBPortDepartureMidChurn detaches a port carrying half the learned
// fleet mid-traffic and checks its entries are flushed immediately (no
// waiting on the idle timer), the other port's entries survive, and
// traffic to departed MACs degrades to flooding rather than misdelivery.
func TestFDBPortDepartureMidChurn(t *testing.T) {
	eng, b, p1, p2, p3 := newBridge()
	const n = 1024

	b.Input(p1, frame(macB, macA, "seed"))
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			learnOn(b, p2, macA, k)
		} else {
			learnOn(b, p3, macA, k)
		}
	}
	eng.Run()
	if got := b.FDBLen(); got != n+1 {
		t.Fatalf("FDBLen = %d after fill, want %d", got, n+1)
	}

	b.RemovePort(p3)
	if got := b.FDBLen(); got != n/2+1 {
		t.Fatalf("FDBLen = %d after departure, want %d", got, n/2+1)
	}
	if b.Lookup(churnMAC(1)) != nil {
		t.Fatal("departed port's MAC still resolves")
	}
	if got := b.Lookup(churnMAC(0)); got != Port(p2) {
		t.Fatalf("surviving MAC resolves to %v, want p2", got)
	}

	// Traffic toward a departed MAC floods to the remaining ports.
	flooded := b.Stats().Flooded
	p1.got = nil
	b.Input(p2, frame(churnMAC(1), churnMAC(0), "stale"))
	eng.Run()
	if b.Stats().Flooded != flooded+1 {
		t.Fatal("frame to departed MAC was not flooded")
	}
	if len(p1.got) != 1 {
		t.Fatalf("flood delivered %d frames to p1, want 1", len(p1.got))
	}
	if got := testPool.Outstanding(); got != 0 {
		t.Fatalf("%d frame buffers leaked", got)
	}
}
