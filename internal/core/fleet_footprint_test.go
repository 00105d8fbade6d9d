package core

import (
	"runtime"
	"testing"

	"kite/internal/netstack"
)

// fleetHeapAfterWave brings up a net-only fleet, sends one 128 B datagram
// per tenant, checks every one arrived, and returns the rig with the heap
// it holds after a collection.
func fleetHeapAfterWave(t *testing.T, guests int) (*FleetRig, uint64) {
	t.Helper()
	rig, err := NewFleetRig(FleetConfig{Guests: guests, Lanes: 4, Seed: 0xf1ee7})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	rig.Client.Stack.BindUDP(9000, func(netstack.UDPPacket) { delivered++ })
	payload := pattern(128)
	for _, g := range rig.Guests {
		g.Stack.SendUDP(rig.ClientIP, 9000, 9001, payload)
	}
	rig.System.Eng.Run()
	if delivered != guests {
		t.Fatalf("%d guests: delivered %d datagrams of %d", guests, delivered, guests)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rig, ms.HeapInuse
}

// TestFleetFootprint holds the per-tenant footprint where demand-zero pages
// and Xen-width tables put it. Every tenant allocates and grants 512 ring
// pages at connect (2 MiB if they were backed: 2.18 GB of heap at 1024
// tenants); after a wave it has touched one Tx slot — the free stack is
// LIFO — and the Rx buffer its ARP reply landed in. What it holds besides
// is headers and tables: 24 B page headers and grant entries, netif ring
// entries at netif.h widths. The 1024-tenant fleet reads 87 MiB, the
// 8192-tenant one 695 MiB; the gates sit about 10 % above.
func TestFleetFootprint(t *testing.T) {
	t.Run("guests=1024", func(t *testing.T) {
		rig, heap := fleetHeapAfterWave(t, 1024)
		t.Logf("HeapInuse %d MiB after one wave", heap>>20)
		// A race-detector build holds about a tenth more (97 MiB).
		limit := uint64(96 << 20)
		if raceEnabled {
			limit = 108 << 20
		}
		if heap > limit {
			t.Errorf("HeapInuse above %d MiB", limit>>20)
		}
		for i, g := range rig.Guests {
			if in := g.Dom.Arena.InUse(); in != 512 {
				t.Fatalf("tenant %d holds %d pages, want 512: every ring page is allocated and granted at connect", i, in)
			}
			if n := g.Dom.Arena.Backed(); n > 4 {
				t.Fatalf("tenant %d: %d of 512 pages backed after one wave, want <= 4", i, n)
			}
		}
	})
	t.Run("guests=8192", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			t.Skip("brings up 8192 tenants: seconds and ~700 MiB")
		}
		_, heap := fleetHeapAfterWave(t, 8192)
		t.Logf("HeapInuse %d MiB after one wave", heap>>20)
		if heap > 765<<20 {
			t.Errorf("HeapInuse above 765 MiB")
		}
	})
}
