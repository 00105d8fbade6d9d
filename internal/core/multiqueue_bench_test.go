package core

import (
	"fmt"
	"testing"

	"kite/internal/netstack"
)

// BenchmarkForwardPathMQ sweeps the vif queue count and reports both
// wall-clock time per 512-frame wave and SIMULATED frames per simulated
// second. The simulated-time throughput scales with the queue count
// because per-queue pushers burn their per-frame CPU cost on distinct
// vCPUs in parallel inside the simulation; the wall-clock number is what
// one goroutine pays to compute that timeline. `make bench` snapshots the
// sweep into BENCH_net.json.
func BenchmarkForwardPathMQ(b *testing.B) {
	for _, queues := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			rig, err := NewNetworkRigCfg(NetworkRigConfig{
				Kind: KindKite, Seed: 0xbe7c4, Queues: queues,
			})
			if err != nil {
				b.Fatal(err)
			}
			delivered := 0
			rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) { delivered++ })
			payload := pattern(128)
			eng := rig.System.Eng
			send := func(i int) {
				rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i%64), payload)
			}
			for i := 0; i < 256; i++ { // warm pools, slots, grant caches
				send(i)
				eng.Run()
			}
			const perWave = 512 // under every per-queue ring/qdisc cap
			// Warm at wave scale too: a full wave's in-flight peak is far
			// above the single-frame working set, and the frame pool (plus
			// ring-haul scratch) grows to its high-water mark on the
			// first few waves. Growing inside the timed loop would smear
			// kilobytes per op across the measurement; after these waves the
			// steady state allocates nothing.
			for w := 0; w < 8; w++ {
				for i := 0; i < perWave; i++ {
					send(i)
				}
				eng.Run()
			}
			delivered = 0
			simStart := eng.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < perWave; i++ {
					send(i)
				}
				eng.Run()
			}
			b.StopTimer()
			if delivered != b.N*perWave {
				b.Fatalf("delivered %d of %d", delivered, b.N*perWave)
			}
			simElapsed := (eng.Now() - simStart).Seconds()
			b.ReportMetric(float64(b.N*perWave)/simElapsed, "simframes/sec")
		})
	}
}

// BenchmarkBlockPathMQ sweeps the vbd hardware-queue count and reports
// SIMULATED bytes per simulated second for a deep 4 KiB write workload
// laid out in stripe-major runs: sixteen consecutive ops per 512 KiB
// stripe, eight stripes per 128-op wave. Runs keep each queue's device
// access sequential at every queue count (so the NVMe random penalty and
// blkback's merge window hit all configurations alike), while distinct
// stripes land on distinct submission queues that pay their per-command
// overhead in parallel. `make bench` snapshots the sweep into
// BENCH_blk.json.
func BenchmarkBlockPathMQ(b *testing.B) {
	for _, queues := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			rig, err := NewStorageRig(StorageRigConfig{
				Kind: KindKite, Seed: 0xb10c4, DiskBytes: 1 << 30, Queues: queues,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng := rig.System.Eng
			const ioBytes = 4 << 10
			const depth = 128 // ops in flight per iteration
			payload := pattern(ioBytes)
			sectorOf := func(i int) int64 {
				return int64(i/16%8)*1024 + int64(i%16)*(ioBytes/512)
			}
			completed := 0
			wcb := func(err error) {
				if err != nil {
					b.Fatal(err)
				}
				completed++
			}
			for i := 0; i < 1024; i++ { // warm pools, grants, sparse store
				rig.Guest.Disk.WriteSectors(sectorOf(i), payload, wcb)
				eng.Run()
			}
			// Warm at full depth too: the first 128-deep waves grow ring
			// free lists, shard heaps and post slots to their high-water
			// marks, which must not bleed bytes into the timed loop.
			for w := 0; w < 8; w++ {
				for i := 0; i < depth; i++ {
					rig.Guest.Disk.WriteSectors(sectorOf(w*depth+i), payload, wcb)
				}
				eng.Run()
			}
			completed = 0
			simStart := eng.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < depth; i++ {
					rig.Guest.Disk.WriteSectors(sectorOf(n*depth+i), payload, wcb)
				}
				eng.Run()
			}
			b.StopTimer()
			if completed != b.N*depth {
				b.Fatalf("completed %d of %d", completed, b.N*depth)
			}
			simElapsed := (eng.Now() - simStart).Seconds()
			b.ReportMetric(float64(b.N*depth*ioBytes)/simElapsed, "simbytes/sec")
		})
	}
}
