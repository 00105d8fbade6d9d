package core

import (
	"bytes"
	"reflect"
	"testing"

	"kite/internal/netback"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// These tests exercise the multi-queue PV transports end to end: xenbus
// negotiation, RSS steering (vif) and extent striping (vbd), data
// integrity across queues, and the scaling the sharded backend workers
// buy when the driver domain has one vCPU per queue.

// TestNetMQNegotiationAndSteering brings up a 4-queue vif and checks that
// both ends negotiated the same queue count, that flows with distinct
// 4-tuples spread over all queues, and that every datagram still arrives
// intact and exactly once in each direction.
func TestNetMQNegotiationAndSteering(t *testing.T) {
	rig, err := NewNetworkRigCfg(NetworkRigConfig{Kind: KindKite, Seed: 0x3a9, Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := rig.Guest.Net.NumQueues(); n != 4 {
		t.Fatalf("frontend negotiated %d queues, want 4", n)
	}
	vifs := rig.ND.Driver.VIFs()
	if len(vifs) != 1 {
		t.Fatalf("got %d VIFs, want 1", len(vifs))
	}
	vif := vifs[0]
	if n := vif.NumQueues(); n != 4 {
		t.Fatalf("backend negotiated %d queues, want 4", n)
	}

	payload := pattern(600)
	eng := rig.System.Eng
	const flows, perFlow = 32, 8
	gotTx := 0
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
		if !bytes.Equal(p.Data, payload) {
			t.Fatal("corrupted payload guest->client")
		}
		gotTx++
	})
	for f := 0; f < flows; f++ {
		for i := 0; i < perFlow; i++ {
			rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, uint16(10000+f), payload)
			eng.Run()
		}
	}
	if gotTx != flows*perFlow {
		t.Fatalf("guest->client delivered %d of %d", gotTx, flows*perFlow)
	}
	// Each queue must have carried traffic: the Toeplitz hash over 32
	// distinct source ports cannot collapse onto fewer than 4 queues.
	for i := 0; i < vif.NumQueues(); i++ {
		if qs := vif.QueueStats(i); qs.TxFrames == 0 {
			t.Errorf("vif queue %d carried no Tx frames", i)
		}
	}

	gotRx := 0
	rig.Guest.Stack.BindUDP(9001, func(p netstack.UDPPacket) {
		if !bytes.Equal(p.Data, payload) {
			t.Fatal("corrupted payload client->guest")
		}
		gotRx++
	})
	for f := 0; f < flows; f++ {
		rig.Client.Stack.SendUDP(rig.GuestIP, 9001, uint16(20000+f), payload)
		eng.Run()
	}
	if gotRx != flows {
		t.Fatalf("client->guest delivered %d of %d", gotRx, flows)
	}
	if n := rig.System.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}

// mqNetFrames is mqNetElapsed's workload: eight waves of 512 frames.
const mqNetFrames = 8 * 512

// TestVIFStatsSumQueues: a multi-queue vif's Stats is the sum of its
// queues' counters, field by field. Guest-bound flows spread over the
// queues, so persistent-mapping misses land on more than one of them.
func TestVIFStatsSumQueues(t *testing.T) {
	rig, err := NewNetworkRigCfg(NetworkRigConfig{Kind: KindKite, Seed: 0x3a9, Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	rig.Guest.Stack.BindUDP(9001, func(netstack.UDPPacket) { got++ })
	const flows = 32
	for f := range flows {
		rig.Client.Stack.SendUDP(rig.GuestIP, 9001, uint16(20000+f), pattern(600))
		rig.System.Eng.Run()
	}
	if got != flows {
		t.Fatalf("client->guest delivered %d of %d", got, flows)
	}
	vif := rig.ND.Driver.VIFs()[0]
	var sum netback.Stats
	missed := 0
	for i := range vif.NumQueues() {
		qs := vif.QueueStats(i)
		if qs.RxPersistMisses > 0 {
			missed++
		}
		s, q := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(qs)
		for f := range s.NumField() {
			s.Field(f).SetUint(s.Field(f).Uint() + q.Field(f).Uint())
		}
	}
	if missed < 2 {
		t.Fatalf("persistent-mapping misses on %d queues, want at least 2", missed)
	}
	if total := vif.Stats(); total != sum {
		t.Fatalf("vif Stats %+v, want the queues' sum %+v", total, sum)
	}
}

// mqNetElapsed measures the simulated time a fixed forwarding workload
// takes on a rig with the given queue count: waves of small frames over
// varied source ports, each wave run to quiescence.
func mqNetElapsed(t *testing.T, queues int) sim.Time {
	t.Helper()
	rig, err := NewNetworkRigCfg(NetworkRigConfig{Kind: KindKite, Seed: 0x5ca1e, Queues: queues})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) { delivered++ })
	payload := pattern(128)
	eng := rig.System.Eng
	send := func(i int) {
		rig.Guest.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i%64), payload)
	}
	for i := 0; i < 256; i++ { // warm pools, slots, and grant caches
		send(i)
		eng.Run()
	}
	delivered = 0
	start := eng.Now()
	for w := 0; w < mqNetFrames/512; w++ {
		for i := 0; i < 512; i++ {
			send(i)
		}
		eng.Run()
	}
	if delivered != mqNetFrames {
		t.Fatalf("queues=%d: delivered %d of %d", queues, delivered, mqNetFrames)
	}
	return eng.Now() - start
}

// TestNetMQScaling sweeps the queue count and asserts the tentpole
// speedup: with 4 queues and 4 driver-domain vCPUs the forwarding workload
// completes at least 2.5x faster (in simulated time) than single-queue,
// because the per-queue pushers burn their per-frame CPU cost in parallel.
// The rest of the sweep is logged: 8 queues is slower than 4 (ROADMAP).
func TestNetMQScaling(t *testing.T) {
	elapsed := map[int]sim.Time{}
	for _, queues := range []int{1, 2, 4, 8} {
		elapsed[queues] = mqNetElapsed(t, queues)
		t.Logf("net: %d queues %v, %.0f simulated frames/s", queues, elapsed[queues],
			mqNetFrames/elapsed[queues].Seconds())
	}
	ratio := float64(elapsed[1]) / float64(elapsed[4])
	t.Logf("net: 1 -> 4 queues speedup %.2fx", ratio)
	if ratio < 2.5 {
		t.Fatalf("4-queue speedup %.2fx, want >= 2.5x", ratio)
	}
}

// TestBlkMQNegotiationAndIntegrity brings up a 4-queue vbd, writes a
// buffer spanning several 512 KiB stripes, reads it back, and checks the
// data survived the striping round trip and that every queue served ring
// requests.
func TestBlkMQNegotiationAndIntegrity(t *testing.T) {
	rig, err := NewStorageRig(StorageRigConfig{
		Kind: KindKite, Seed: 0x3b9, DiskBytes: 1 << 30, Queues: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rig.Guest.Disk.NumQueues(); n != 4 {
		t.Fatalf("frontend negotiated %d queues, want 4", n)
	}
	insts := rig.SD.Driver.Instances()
	if len(insts) != 1 {
		t.Fatalf("got %d instances, want 1", len(insts))
	}
	inst := insts[0]
	if n := inst.NumQueues(); n != 4 {
		t.Fatalf("backend negotiated %d queues, want 4", n)
	}

	// 3 MiB starting mid-stripe: covers six full stripes plus ragged ends,
	// so every queue sees requests and chunks split at stripe boundaries.
	const total = 3 << 20
	startSector := int64(512) // half a stripe in
	payload := patternSeed(total, 0x5a)
	eng := rig.System.Eng
	done := false
	rig.Guest.Disk.WriteSectors(startSector, payload, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("striped write never completed")
	}
	done = false
	rig.Guest.Disk.Flush(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("flush never completed")
	}
	var got []byte
	rig.Guest.Disk.ReadSectors(startSector, total, func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data...)
	})
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("striped read-back does not match written data")
	}
	for i := 0; i < inst.NumQueues(); i++ {
		if qs := inst.QueueStats(i); qs.RingRequests == 0 {
			t.Errorf("vbd queue %d served no ring requests", i)
		}
	}
	if n := rig.System.BlkPool.Outstanding(); n != 0 {
		t.Fatalf("%d sector buffers leaked", n)
	}
}

// mqBlkElapsed's workload: 512 writes of 4 KiB.
const mqBlkOps, mqBlkIOBytes = 512, 4 << 10

// mqBlkElapsed measures the simulated time a fixed 4 KiB-write workload
// takes with the given queue count. The sectors walk the stripes round
// robin, so with N queues the per-submission-queue command overhead is
// paid on N NVMe queues (and N backend vCPUs) in parallel.
func mqBlkElapsed(t *testing.T, queues int) sim.Time {
	t.Helper()
	rig, err := NewStorageRig(StorageRigConfig{
		Kind: KindKite, Seed: 0xb5ca1e, DiskBytes: 1 << 30, Queues: queues,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := rig.System.Eng
	payload := patternSeed(mqBlkIOBytes, 0x17)
	// Warm pools, grants, and the sparse store over the sectors we will
	// time (one op per stripe slot).
	sectorOf := func(i int) int64 {
		return int64(i%4)*1024 + int64(i/4)*(mqBlkIOBytes/512)
	}
	for i := 0; i < mqBlkOps; i++ {
		ok := false
		rig.Guest.Disk.WriteSectors(sectorOf(i), payload, func(err error) { ok = err == nil })
		eng.Run()
		if !ok {
			t.Fatalf("warmup write %d failed", i)
		}
	}
	completed := 0
	start := eng.Now()
	for i := 0; i < mqBlkOps; i++ {
		rig.Guest.Disk.WriteSectors(sectorOf(i), payload, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			completed++
		})
	}
	eng.Run()
	if completed != mqBlkOps {
		t.Fatalf("queues=%d: completed %d of %d", queues, completed, mqBlkOps)
	}
	return eng.Now() - start
}

// TestBlkMQScaling sweeps the queue count and asserts the storage
// speedup: 4 hardware queues finish the same deep 4 KiB workload at least
// 2x faster than one queue. The rest of the sweep is logged.
func TestBlkMQScaling(t *testing.T) {
	elapsed := map[int]sim.Time{}
	for _, queues := range []int{1, 2, 4, 8} {
		elapsed[queues] = mqBlkElapsed(t, queues)
		t.Logf("blk: %d queues %v, %.0f simulated bytes/s", queues, elapsed[queues],
			mqBlkOps*mqBlkIOBytes/elapsed[queues].Seconds())
	}
	ratio := float64(elapsed[1]) / float64(elapsed[4])
	t.Logf("blk: 1 -> 4 queues speedup %.2fx", ratio)
	if ratio < 2.0 {
		t.Fatalf("4-queue speedup %.2fx, want >= 2x", ratio)
	}
}
