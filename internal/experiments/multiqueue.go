package experiments

import (
	"fmt"

	"kite/internal/core"
	"kite/internal/netstack"
)

// MQStats summarizes the deterministic multi-queue workload behind
// kitebench's -queues flag. Every figure is queue-invariant by
// construction: the RSS steering and extent striping change only *when*
// frames and requests move, never *what* arrives — so the printed lines
// are byte-identical for any -queues (and, like the rest of the summary,
// for any -parallel). Scaling numbers deliberately live in internal/core's
// TestNetMQScaling and TestBlkMQScaling, not here.
type MQStats struct {
	// Network leg: UDP datagrams pushed both ways over a Kite vif.
	NetFrames   uint64
	NetBytes    uint64
	QueueTx     uint64 // per-queue Tx counters, summed over the rig's VIFs
	QueueRx     uint64 // per-queue Rx counters, summed over the rig's VIFs
	NetChecksum uint64 // order-invariant sum of per-datagram FNV-1a hashes

	// Block leg: 4 KiB ops striped across a Kite vbd's queues.
	BlkOps      uint64
	BlkBytes    uint64
	QueueReqs   uint64 // per-queue ring-request counters, summed over the rig's vbds
	BlkChecksum uint64 // sum of FNV-1a hashes of the data read back, in issue order

	// Shard-cluster counters for the network leg (zero when unsharded).
	// Posts are a property of the event timeline, identical on any host at
	// any GOMAXPROCS — but they do depend on the queue count, so they print
	// on their own line, separate from the queue-invariant summary above.
	Shards int    // cluster shards (1 + queues when sharded)
	Posts  uint64 // cross-shard posts made

	// ShardEvents is the per-shard event count — how the timeline's work
	// actually distributes over the shards. Like posts, it is a property of
	// the event timeline.
	ShardEvents []uint64
}

// String renders the two summary lines exactly as kitebench prints them.
func (m MQStats) String() string {
	return fmt.Sprintf(
		"kitebench: mq net %d frames / %d bytes (queue-tx %d, queue-rx %d), checksum %016x\n"+
			"kitebench: mq blk %d ops / %d bytes (queue-reqs %d), checksum %016x",
		m.NetFrames, m.NetBytes, m.QueueTx, m.QueueRx, m.NetChecksum,
		m.BlkOps, m.BlkBytes, m.QueueReqs, m.BlkChecksum)
}

// ShardLine renders the cluster counters. The line is byte-identical for
// any -parallel and GOMAXPROCS (posts and events are timeline facts), but
// varies with -queues, so kitebench prints it separately from
// the queue-invariant summary.
func (m MQStats) ShardLine() string {
	return fmt.Sprintf("kitebench: mq shards %d, %d cross-shard posts, events per shard %d",
		m.Shards, m.Posts, m.ShardEvents)
}

// fnv1a hashes b with FNV-1a, folding in a leading tag so datagrams that
// share a payload but not a flow still hash apart.
func fnv1a(tag uint64, b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= tag >> (8 * i) & 0xff
		h *= 1099511628211
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mqFlows is the number of distinct UDP source ports the network leg
// spreads over; the Toeplitz hash fans 32 flows across every queue count
// up to netif.MaxQueues.
const mqFlows = 32

// MQSummary drives the deterministic multi-queue workload on Kite rigs
// built with the given queue count.
//
// Network leg: mqFlows UDP flows send Scale.PingCount datagrams each,
// guest->client and client->guest, in waves small enough that no qdisc or
// ring ever drops — every datagram arrives exactly once at any queue
// count, so totals and checksums are queue-invariant.
//
// Block leg: 4 KiB writes walk eight 512 KiB stripes round-robin (each op
// stripe-aligned, so the request count does not depend on striping), then
// a flush, then read-back with verification, one op in flight at a time
// so completion order is issue order at any queue count.
func MQSummary(s Scale, queues int) MQStats {
	var m MQStats

	// --- Network leg ---
	nrig := mustNetRigCfg(core.NetworkRigConfig{Kind: core.KindKite, Seed: 0x30b, Queues: queues})
	sys := nrig.Testbed.System
	m.Shards = 1
	if c := sys.Cluster; c != nil {
		m.Shards = c.Shards()
	}
	payload := make([]byte, 256)
	stamp := func(flow, seq int) {
		for i := range payload {
			payload[i] = byte(i*13 + flow*31 + seq*7)
		}
	}
	var gotClient, gotGuest int
	nrig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
		gotClient++
		m.NetFrames++
		m.NetBytes += uint64(len(p.Data))
		m.NetChecksum += fnv1a(uint64(p.SrcPort), p.Data)
	})
	nrig.Guest.Stack.BindUDP(9001, func(p netstack.UDPPacket) {
		gotGuest++
		m.NetFrames++
		m.NetBytes += uint64(len(p.Data))
		m.NetChecksum += fnv1a(uint64(p.SrcPort)<<16, p.Data)
	})
	for seq := 0; seq < s.PingCount; seq++ {
		// One wave per direction, well under every per-queue ring, qdisc,
		// and backend queue cap — nothing can drop, so each datagram
		// arrives exactly once regardless of the queue count.
		for f := 0; f < mqFlows; f++ {
			stamp(f, seq)
			nrig.Guest.Stack.SendUDP(nrig.ClientIP, 9000, uint16(10000+f), payload)
		}
		want := (seq + 1) * mqFlows
		drive(sys, func() bool { return gotClient == want }, 5_000_000)
		for f := 0; f < mqFlows; f++ {
			stamp(f, seq)
			nrig.Client.Stack.SendUDP(nrig.GuestIP, 9001, uint16(20000+f), payload)
		}
		drive(sys, func() bool { return gotGuest == want }, 5_000_000)
	}

	// --- Block leg ---
	brig := mustStorRig(core.StorageRigConfig{
		Kind: core.KindKite, Seed: 0x30c, DiskBytes: 1 << 30, Queues: queues,
	})
	const ioBytes = 4 << 10
	buf := make([]byte, ioBytes)
	ops := int(s.DDBytes >> 20) // 4 KiB ops: 48 at quick scale, 512 at full
	sectorOf := func(i int) int64 {
		return int64(i%8)*1024 + int64(i/8)*(ioBytes/512)
	}
	oneOp := func(issue func(done *bool)) {
		done := false
		issue(&done)
		drive(brig.Testbed.System, func() bool { return done }, 10_000_000)
		m.BlkOps++
		m.BlkBytes += ioBytes
	}
	for i := 0; i < ops; i++ {
		for j := range buf {
			buf[j] = byte(j*29 + i*41 + 3)
		}
		i := i
		oneOp(func(done *bool) {
			brig.Guest.Disk.WriteSectors(sectorOf(i), buf, func(err error) { *done = err == nil })
		})
	}
	{
		done := false
		brig.Guest.Disk.Flush(func(err error) { done = err == nil })
		drive(brig.Testbed.System, func() bool { return done }, 10_000_000)
	}
	for i := 0; i < ops; i++ {
		i := i
		oneOp(func(done *bool) {
			brig.Guest.Disk.ReadSectors(sectorOf(i), ioBytes, func(data []byte, err error) {
				if err != nil {
					return
				}
				m.BlkChecksum += fnv1a(uint64(i), data)
				*done = true
			})
		})
	}

	for _, v := range nrig.ND.Driver.Instances() {
		st := v.Stats()
		m.QueueTx += st.TxFrames
		m.QueueRx += st.RxFrames
	}
	for _, inst := range brig.SD.Driver.Instances() {
		m.QueueReqs += inst.Stats().RingRequests
	}
	if c := sys.Cluster; c != nil {
		m.Posts = c.Posted()
		for i := 0; i < c.Shards(); i++ {
			m.ShardEvents = append(m.ShardEvents, c.Shard(i).ProcessedLocal())
		}
	}
	return m
}
