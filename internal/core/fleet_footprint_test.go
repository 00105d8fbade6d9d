package core

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"kite/internal/netstack"
)

// heapInuse returns HeapInuse after a collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// procKB reads one "Key: N kB" field of a /proc file; ok is false off
// Linux or where the kernel lacks the field.
func procKB(path, key string) (kb int64, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, found := strings.CutPrefix(line, key+":"); found {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// logResident logs the heap a fleet holds after its wave and what the fleet
// added to it, beside the process's resident set and how much of that is
// on transparent huge pages.
func logResident(t *testing.T, heap, growth uint64) {
	t.Helper()
	msg := fmt.Sprintf("HeapInuse %d MiB after one wave (%d KiB of it the fleet's)", heap>>20, growth>>10)
	rss, ok1 := procKB("/proc/self/status", "VmRSS")
	huge, ok2 := procKB("/proc/self/smaps_rollup", "AnonHugePages")
	if ok1 && ok2 {
		msg += fmt.Sprintf("; VmRSS %d MiB, AnonHugePages %d MiB", rss>>10, huge>>10)
	}
	t.Log(msg)
}

// fleetHeapAfterWave brings up a net-only fleet, sends one 128 B datagram
// per tenant, checks every one arrived, and returns the rig with the heap
// it holds after a collection, and how much of that the rig and its wave
// added.
func fleetHeapAfterWave(t *testing.T, guests int) (rig *FleetRig, heap, growth uint64) {
	t.Helper()
	before := heapInuse()
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
	heap = heapInuse()
	return rig, heap, heap - before
}

// TestFleetFootprint holds the per-tenant footprint where demand-zero pages
// and Xen-width tables put it. Every tenant allocates and grants 512 ring
// pages at connect (2 MiB if they were backed: 2.18 GB of heap at 1024
// tenants); after a wave it has touched one Tx slot — the free stack is
// LIFO — and the Rx buffer its ARP reply landed in. What it holds besides
// is headers and tables: 16 B page headers and grant entries, netif ring
// entries at netif.h widths, ring slots that are a grant ref each, and two
// frames of the frame pool's small class. The 1024-tenant fleet reads
// 54 MiB, the 8192-tenant one 432 MiB; the gates sit about 10 % above.
//
// NewFleetRig reserves fleetTenantBytes a tenant on 2 MiB pages, and what
// outgrows the reservation lands on 4 KiB pages, so the 1024-tenant case
// also holds what the rig and its wave added to the reservation: a
// footprint that outgrows it fails here rather than silently losing its
// huge pages.
func TestFleetFootprint(t *testing.T) {
	t.Run("guests=1024", func(t *testing.T) {
		rig, heap, growth := fleetHeapAfterWave(t, 1024)
		logResident(t, heap, growth)
		// A race-detector build holds a little more (59 MiB).
		limit := uint64(61 << 20)
		if raceEnabled {
			limit = 65 << 20
		}
		if heap > limit {
			t.Errorf("HeapInuse above %d MiB", limit>>20)
		}
		// The reservation is sized for the build that runs fleets; a
		// race-detector build pads every allocation.
		if reserved := uint64(len(rig.Guests)) * fleetTenantBytes; growth > reserved && !raceEnabled {
			t.Errorf("the fleet grew the heap by %d KiB, beyond the %d KiB NewFleetRig reserved on huge pages", growth>>10, reserved>>10)
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
			t.Skip("brings up 8192 tenants: seconds and ~430 MiB")
		}
		_, heap, growth := fleetHeapAfterWave(t, 8192)
		logResident(t, heap, growth)
		if heap > 475<<20 {
			t.Errorf("HeapInuse above 475 MiB")
		}
	})
}
