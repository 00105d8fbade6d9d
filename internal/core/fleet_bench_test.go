package core

import (
	"fmt"
	"runtime"
	"testing"

	"kite/internal/netstack"
)

// BenchmarkFleet sweeps the tenant count of a fleet-mode network driver
// domain: N single-queue guests share four DRR service lanes (one per
// cluster shard), and every iteration pushes one frame per tenant
// through its lane to the external client. Wall-clock time per frame
// tracks how the shared-lane data plane scales with the fleet size:
// lanes, demux bitmaps, and flow-table lookups are all O(1) per frame and
// the steady state allocates nothing at any scale, yet wall ns/frame still
// grows with the fleet, because every frame walks its own tenant's objects
// (stack, netfront queue and granted pages, rings, VIF, event channels) and
// a thousand tenants' worth of them do not fit a cache; it is not the event
// heap and not window sync, which cost the same per frame at any size.
// posts/frame and events/frame are the exact counts behind that (one round
// per lane per wave, so they include 1/guests of a round's fixed cost);
// B/tenant is what a tenant pins at set-up. `make bench` snapshots the
// sweep into BENCH_net.json next to the forward-path families.
func BenchmarkFleet(b *testing.B) {
	for _, guests := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
			rig, err := NewFleetRig(FleetConfig{
				Guests: guests, Lanes: 4, Seed: 0xf1ee7,
			})
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapInuse := ms.HeapInuse
			sys := rig.Testbed.System
			delivered := 0
			rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) { delivered++ })
			payload := pattern(128)
			eng := sys.Eng
			wave := func(w int) {
				for _, g := range rig.Guests {
					g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+w%64), payload)
				}
			}
			for w := 0; w < 8; w++ { // warm pools, slots, FDB, lane lists
				wave(w)
				eng.Run()
			}
			delivered = 0
			simStart := eng.Now()
			posts, events := sys.Cluster.Posted(), eng.Processed()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				wave(n)
				eng.Run()
			}
			b.StopTimer()
			if delivered != b.N*guests {
				b.Fatalf("delivered %d of %d", delivered, b.N*guests)
			}
			simElapsed := (eng.Now() - simStart).Seconds()
			b.ReportMetric(float64(b.N*guests)/simElapsed, "simframes/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*guests), "ns/frame")
			b.ReportMetric(float64(sys.Cluster.Posted()-posts)/float64(b.N*guests), "posts/frame")
			b.ReportMetric(float64(eng.Processed()-events)/float64(b.N*guests), "events/frame")
			b.ReportMetric(float64(heapInuse)/float64(guests), "B/tenant")
		})
	}
}
