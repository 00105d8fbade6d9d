//go:build !race

// The race detector instruments allocations, so the exact-zero assertions
// here only hold in normal builds; `go test -race` skips this file.

package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kite/internal/netstack"
)

// heapBytesPerRun reports the average heap bytes the workload allocates
// per call to f. AllocsPerRun counts objects; this counts bytes, which
// catches amortized growth (free-list doubling, high-water creep) that
// rounds to zero objects per op but still bleeds kilobytes across a sweep.
// Every allocation is profiled for the window, and only those made under a
// function of this module count: the runtime allocates on its own account
// in any window (timer heaps, a new M's records), and those bytes are not
// the workload's.
func heapBytesPerRun(runs int, f func()) float64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f() // settle any first-call growth outside the measured window
	before := moduleAllocBytes()
	for i := 0; i < runs; i++ {
		f()
	}
	return float64(moduleAllocBytes()-before) / float64(runs)
}

// moduleAllocBytes sums the bytes the heap profile records as allocated
// under a kite/ function, leaving out its own (the profile buffer, the
// frame walk). A record is published a cycle after its allocation, so two
// collections run first.
func moduleAllocBytes() (total int64) {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("heap profile grew past its buffer")
	}
	for i := range recs[:n] {
		module := false
		for frames, more := runtime.CallersFrames(recs[i].Stack()), true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasSuffix(fr.Function, ".moduleAllocBytes") {
				module, more = false, false
			} else if strings.HasPrefix(fr.Function, "kite/") {
				module = true
			}
		}
		if module {
			total += recs[i].AllocBytes
		}
	}
	return total
}

// TestForwardPathZeroAlloc asserts the tentpole property: after warmup
// (pool population, FIFO/map high-water marks, ARP and grant caches), one
// forwarded frame allocates nothing on the heap in either direction —
// guest→netfront→netback→bridge→NIC→client (Tx) and the reverse (Rx).
func TestForwardPathZeroAlloc(t *testing.T) {
	rig, err := NewNetworkRig(KindKite, 0xa110c)
	if err != nil {
		t.Fatal(err)
	}
	var sent, delivered int
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) { delivered++ })
	rig.Guest.Stack.BindUDP(9001, func(p netstack.UDPPacket) { delivered++ })
	payload := pattern(1400)
	eng := rig.System.Eng

	tx := func() {
		rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, 9001, payload)
		eng.Run()
		sent++
	}
	rx := func() {
		rig.Client.Stack.SendUDP(rig.GuestIP, 9001, 9000, payload)
		eng.Run()
		sent++
	}
	// 300 > 256: the frontend cycles its posted Rx buffers round-robin, so
	// the warm-up wraps the ring once and every Rx page has had its first
	// touch (guest pages are demand-zero) before anything is measured.
	for i := 0; i < 300; i++ {
		tx()
		rx()
	}

	if allocs := testing.AllocsPerRun(100, tx); allocs != 0 {
		t.Errorf("Tx direction: %.1f allocs per forwarded frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, rx); allocs != 0 {
		t.Errorf("Rx direction: %.1f allocs per forwarded frame, want 0", allocs)
	}
	if delivered != sent {
		t.Errorf("delivered %d of %d frames", delivered, sent)
	}
	if n := rig.System.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}

// TestForwardPathZeroAllocMQ asserts the multi-queue variant of the same
// property at EVERY negotiable queue count: per-queue cluster shards, the
// frame pool, preallocated Tx slot tables, and grant caches must keep
// the steady-state forwarded frame at exactly zero heap allocations in both
// directions — one stray byte per op fails the sweep.
func TestForwardPathZeroAllocMQ(t *testing.T) {
	for _, queues := range []int{1, 2, 4, 8} {
		queues := queues
		t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
			rig, err := NewNetworkRigCfg(NetworkRigConfig{Kind: KindKite, Seed: 0xa110c4, Queues: queues})
			if err != nil {
				t.Fatal(err)
			}
			if n := rig.Guest.Net.NumQueues(); n != queues {
				t.Fatalf("negotiated %d queues, want %d", n, queues)
			}
			rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {})
			rig.Guest.Stack.BindUDP(9001, func(p netstack.UDPPacket) {})
			payload := pattern(1400)
			eng := rig.System.Eng

			// Warm every queue: 64 source ports hash across all queues,
			// populating each queue's Tx slots and persistent mappings. The
			// frontend cycles its 256 posted Rx buffers round-robin, so each
			// queue needs >256 Rx frames before the backend's
			// persistent-grant cache stops missing — and before
			// every Rx page has had its first touch (guest pages are
			// demand-zero; a first touch is a 4 KiB allocation).
			warm := 1300
			if queues == 8 {
				warm = 2500
			}
			for i := 0; i < warm; i++ {
				rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i%64), payload)
				eng.Run()
				rig.Client.Stack.SendUDP(rig.GuestIP, 9001, uint16(9000+i%64), payload)
				eng.Run()
			}
			for port := 0; port < queues; port++ {
				port := uint16(9001 + port*16)
				tx := func() {
					rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, port, payload)
					eng.Run()
				}
				rx := func() {
					rig.Client.Stack.SendUDP(rig.GuestIP, 9001, port, payload)
					eng.Run()
				}
				if allocs := testing.AllocsPerRun(50, tx); allocs != 0 {
					t.Errorf("Tx srcport %d: %.1f allocs per frame, want 0", port, allocs)
				}
				if allocs := testing.AllocsPerRun(50, rx); allocs != 0 {
					t.Errorf("Rx srcport %d: %.1f allocs per frame, want 0", port, allocs)
				}
			}
			// Byte invariant at wave scale: a 512-frame burst holds far
			// more buffers in flight than one frame; the free list the
			// warm-up waves left — nothing pre-sizes it — must cover that
			// pipeline, not grow through it. Bytes, not just objects:
			// high-water creep rounds to 0 allocs/op while still leaking
			// kilobytes per sweep.
			wave := func() {
				for i := 0; i < 512; i++ {
					rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i%64), payload)
				}
				eng.Run()
			}
			for w := 0; w < 8; w++ {
				wave()
			}
			if bytes := heapBytesPerRun(50, wave); bytes != 0 {
				t.Errorf("512-frame wave: %.1f heap bytes per wave, want 0", bytes)
			}
			if n := rig.System.Pool.Outstanding(); n != 0 {
				t.Fatalf("%d frame buffers leaked", n)
			}
		})
	}
}

// TestForwardPathZeroAllocFleet asserts the property for the fleet data
// path at every size from 16 to 1024 tenants: once eight waves have warmed
// the pools, slots, FDB and lane lists, a wave of one 128 B datagram per
// tenant through the shared DRR lanes allocates nothing.
func TestForwardPathZeroAllocFleet(t *testing.T) {
	for _, guests := range []int{16, 64, 256, 1024} {
		t.Run(fmt.Sprintf("guests=%d", guests), func(t *testing.T) {
			rig, err := NewFleetRig(FleetConfig{Guests: guests, Lanes: 4, Seed: 0xf1ee7})
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			rig.Client.Stack.BindUDP(9000, func(netstack.UDPPacket) { delivered++ })
			payload := pattern(128)
			w := 0
			wave := func() {
				for _, g := range rig.Guests {
					g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+w%64), payload)
				}
				rig.System.Eng.Run()
				w++
			}
			for w < 8 {
				wave()
			}
			if allocs := testing.AllocsPerRun(20, wave); allocs != 0 {
				t.Errorf("%.1f allocs per wave of %d frames, want 0", allocs, guests)
			}
			if delivered != w*guests {
				t.Fatalf("delivered %d of %d frames", delivered, w*guests)
			}
		})
	}
}

// TestBlockPathZeroAlloc asserts the storage tentpole property: once pools,
// persistent grants, and the NVMe sparse store are warm, a 256 KiB write
// and a 256 KiB read through the full PV storage pipeline allocate nothing
// on the heap — requests ride pooled records with pre-bound closures,
// merged device ops hand the device an iovec of grant-mapped views, and
// read completions borrow pooled sector buffers.
func TestBlockPathZeroAlloc(t *testing.T) {
	rig, err := NewStorageRig(StorageRigConfig{Kind: KindKite, Seed: 0xb10c, DiskBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const ioBytes = 256 << 10
	payload := pattern(ioBytes)
	eng := rig.System.Eng
	var issued, completed int
	wcb := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		completed++
	}
	rcb := func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		completed++
	}
	write := func() {
		rig.Guest.Disk.WriteSectors(0, payload, wcb)
		eng.Run()
		issued++
	}
	read := func() {
		rig.Guest.Disk.ReadSectors(0, ioBytes, rcb)
		eng.Run()
		issued++
	}
	for i := 0; i < 100; i++ { // warm pools, grants, and the sparse store
		write()
		read()
	}

	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("write path: %.1f allocs per 256 KiB write, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("read path: %.1f allocs per 256 KiB read, want 0", allocs)
	}
	if completed != issued {
		t.Errorf("completed %d of %d operations", completed, issued)
	}
	if n := rig.System.BlkPool.Outstanding(); n != 0 {
		t.Fatalf("%d sector buffers leaked", n)
	}
}

// TestBlockPathZeroAllocMQ asserts the same property at every vbd
// hardware-queue count: a 256 KiB op that straddles a 512 KiB stripe
// boundary (so its chunks ride two queues with separate rings, page pools,
// and blkback shards) still allocates nothing once warm — any per-op byte
// creep fails the sweep.
func TestBlockPathZeroAllocMQ(t *testing.T) {
	for _, queues := range []int{2, 4, 8} {
		queues := queues
		t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
			rig, err := NewStorageRig(StorageRigConfig{
				Kind: KindKite, Seed: 0xb10c4, DiskBytes: 1 << 30, Queues: queues,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := rig.Guest.Disk.NumQueues(); n != queues {
				t.Fatalf("negotiated %d queues, want %d", n, queues)
			}
			const ioBytes = 256 << 10
			payload := pattern(ioBytes)
			eng := rig.System.Eng
			wcb := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			rcb := func(data []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			// sector 896 puts the op across the stripe-0/stripe-1 boundary;
			// the warmup loop also walks the remaining stripes so every
			// queue's pools and persistent grants are populated.
			write := func() {
				rig.Guest.Disk.WriteSectors(896, payload, wcb)
				eng.Run()
			}
			read := func() {
				rig.Guest.Disk.ReadSectors(896, ioBytes, rcb)
				eng.Run()
			}
			for i := 0; i < 100; i++ {
				write()
				read()
				base := int64(2048 + (i%(queues-1))*1024) // stripes 2..queues
				rig.Guest.Disk.WriteSectors(base, payload[:4096], wcb)
				eng.Run()
			}

			if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
				t.Errorf("striped write: %.1f allocs per 256 KiB write, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
				t.Errorf("striped read: %.1f allocs per 256 KiB read, want 0", allocs)
			}
			// Byte invariant at depth: a 128-deep stripe-major wave keeps
			// every queue's rings, shard heaps and post slots at their
			// high-water marks; once warm, the whole wave must not allocate
			// a byte.
			wave := func() {
				for i := 0; i < 128; i++ {
					base := int64(i/16%queues)*1024 + int64(i%16)*8
					rig.Guest.Disk.WriteSectors(base, payload[:4096], wcb)
				}
				eng.Run()
			}
			for w := 0; w < 8; w++ {
				wave()
			}
			if bytes := heapBytesPerRun(50, wave); bytes != 0 {
				t.Errorf("128-deep wave: %.1f heap bytes per wave, want 0", bytes)
			}
			if n := rig.System.BlkPool.Outstanding(); n != 0 {
				t.Fatalf("%d sector buffers leaked", n)
			}
		})
	}
}
