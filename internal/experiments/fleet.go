package experiments

import (
	"fmt"

	"kite/internal/core"
	"kite/internal/netpkt"
	"kite/internal/netstack"
)

// FleetStats summarizes the fleet workload behind kitebench's -guests
// flag: one Kite network domain and one Kite storage domain serving N
// single-queue tenants through shared DRR service lanes. Every printed
// figure is a timeline fact — counts, checksums over per-tenant counters
// in attach order, lane/demux totals — so the whole summary is
// byte-identical for any -parallel choice.
type FleetStats struct {
	Guests int
	Lanes  int

	// Delivery phase: every tenant exchanges datagrams with the client.
	TenantTxFrames uint64 // netback per-tenant Tx totals (guest -> world)
	TenantTxBytes  uint64
	TenantRxFrames uint64 // world -> guest
	Drops          uint64 // netback rx-queue + no-buffer drops, all tenants
	NetChecksum    uint64 // order-invariant sum of per-datagram FNV-1a hashes

	// Storage phase: every tenant round-trips 4 KiB ops through its lane.
	TenantBlkBytes uint64 // blkback per-tenant payload totals
	BlkChecksum    uint64 // FNV-1a over data read back, summed over tenants

	// TenantChecksum folds every tenant's (tx, rx, drops, blk bytes)
	// counters in attach order — one line that proves the whole
	// per-tenant table is identical across runs.
	TenantChecksum uint64

	// Fairness phase: tenant 0 offers 10x the load of everyone else;
	// MinShare is the smallest well-behaved tenant's delivered fraction
	// of its own offered burst at the moment the adversary has been
	// served twice that burst. DRR clamps the adversary to one quantum
	// per round, so every well-behaved tenant completes first and
	// MinShare sits at 1.0; FIFO service would drain the adversary's
	// backlog ahead of its lane-mates and starve them toward 0.
	MinShare float64

	// Lane and demux behavior (network side).
	Rounds     uint64 // DRR rounds across lanes
	DemuxScans uint64
	DemuxMarks uint64

	// Cluster counters (timeline facts).
	Shards int
	Posts  uint64
	// What the delivery phase — one datagram per tenant each way, a wave
	// at a time — cost the event core per datagram delivered: cross-shard
	// posts and engine events, exact counts.
	DeliveryFrames uint64
	DeliveryPosts  uint64
	DeliveryEvents uint64
}

// String renders the summary lines exactly as kitebench prints them.
func (f FleetStats) String() string {
	return fmt.Sprintf(
		"kitebench: fleet %d guests / %d lanes: tx %d frames / %d bytes, rx %d frames, drops %d, net checksum %016x\n"+
			"kitebench: fleet blk %d bytes, checksum %016x, tenant-table checksum %016x\n"+
			"kitebench: fleet fairness min-share %.3f (one tenant at 10x), %d rounds, demux %d scans / %d marks",
		f.Guests, f.Lanes, f.TenantTxFrames, f.TenantTxBytes, f.TenantRxFrames,
		f.Drops, f.NetChecksum,
		f.TenantBlkBytes, f.BlkChecksum, f.TenantChecksum,
		f.MinShare, f.Rounds, f.DemuxScans, f.DemuxMarks)
}

// ShardLine renders the cluster counters (vary with the lane count, never
// with -parallel or GOMAXPROCS).
func (f FleetStats) ShardLine() string {
	return fmt.Sprintf("kitebench: fleet shards %d, %d cross-shard posts; delivery phase %.3f posts/frame, %.3f events/frame",
		f.Shards, f.Posts,
		float64(f.DeliveryPosts)/float64(f.DeliveryFrames), float64(f.DeliveryEvents)/float64(f.DeliveryFrames))
}

// fleetLanes is the service-lane count the kitebench fleet runs with.
const fleetLanes = 4

// fleetWave is how many tenants exchange datagrams concurrently during
// the delivery phase — small enough that no queue on the shared client
// path can drop.
const fleetWave = 32

// FleetSummary drives the fleet workload: guests tenants on fleetLanes
// service lanes.
//
// Delivery phase: tenants send one tagged datagram to the client and get
// one back, in waves of fleetWave so nothing drops; totals and checksums
// are exact. Storage phase: every tenant writes and reads back one 4 KiB
// block through its vbd lane, verified by checksum. Fairness phase:
// tenant 0 bursts 10x the frames of every other tenant, and per-tenant
// delivery counts are snapshotted when half the offered frames are
// through — the DRR lanes keep every well-behaved tenant at its fair
// share while the adversary is clamped to its own.
func FleetSummary(s Scale, guests int) FleetStats {
	if guests <= 0 {
		guests = 64
	}
	var f FleetStats
	f.Guests, f.Lanes = guests, fleetLanes

	rig, err := core.NewFleetRig(core.FleetConfig{
		Guests: guests, Lanes: fleetLanes, Seed: 0xf1ee7,
		Storage: true, DiskBytes: 4 << 20,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: fleet rig: %v", err))
	}
	sys := rig.Testbed.System
	f.Shards = sys.Cluster.Shards()

	// --- Delivery phase ---
	waves := s.PingCount
	if waves > 4 {
		waves = 4 // per-tenant repetition adds cost, not information
	}
	gotClient := make([]int, guests)
	ipIndex := make(map[netpkt.IP]int, guests)
	for i := 0; i < guests; i++ {
		ipIndex[rig.GuestIPOf(i)] = i
	}
	// Fairness-phase snapshot state: armed once the overload burst is
	// offered, the snapshot is taken inside the delivery callback the
	// moment the adversary's deliveries reach twice a well-behaved
	// burst — an exact event boundary.
	var fairArmed bool
	var fairAdv int
	var fairSnap []int
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
		i, ok := ipIndex[p.Src]
		if !ok {
			return
		}
		gotClient[i]++
		f.NetChecksum += fnv1a(uint64(i)<<32|uint64(p.SrcPort), p.Data)
		if fairArmed && i == 0 {
			fairAdv++
			if fairSnap == nil && fairAdv >= 2*fairBurst {
				fairSnap = append([]int(nil), gotClient...)
			}
		}
	})
	gotGuest := make([]int, guests)
	for i, g := range rig.Guests {
		i := i
		g.Stack.BindUDP(9001, func(p netstack.UDPPacket) {
			gotGuest[i]++
			f.NetChecksum += fnv1a(uint64(i)<<48, p.Data)
		})
	}
	payload := make([]byte, 256)
	posts, events := sys.Cluster.Posted(), sys.Eng.Processed()
	for w := 0; w < waves; w++ {
		for lo := 0; lo < guests; lo += fleetWave {
			hi := lo + fleetWave
			if hi > guests {
				hi = guests
			}
			for i := lo; i < hi; i++ {
				for j := range payload {
					payload[j] = byte(i*31 + j*13 + w*7)
				}
				rig.Guests[i].Stack.SendUDP(rig.ClientIP, 9000, uint16(10000+w), payload)
			}
			drive(sys, func() bool {
				for i := lo; i < hi; i++ {
					if gotClient[i] < w+1 {
						return false
					}
				}
				return true
			}, 20_000_000)
			for i := lo; i < hi; i++ {
				for j := range payload {
					payload[j] = byte(i*31 + j*13 + w*7)
				}
				rig.Client.Stack.SendUDP(rig.GuestIPOf(i), 9001, uint16(20000+w), payload)
			}
			drive(sys, func() bool {
				for i := lo; i < hi; i++ {
					if gotGuest[i] < w+1 {
						return false
					}
				}
				return true
			}, 20_000_000)
		}
	}

	f.DeliveryFrames = uint64(2 * waves * guests)
	f.DeliveryPosts = sys.Cluster.Posted() - posts
	f.DeliveryEvents = sys.Eng.Processed() - events

	// --- Storage phase ---
	buf := make([]byte, 4096)
	for lo := 0; lo < guests; lo += fleetWave {
		hi := lo + fleetWave
		if hi > guests {
			hi = guests
		}
		okRead := 0
		for i := lo; i < hi; i++ {
			for j := range buf {
				buf[j] = byte(i*29 + j*3)
			}
			i, g := i, rig.Guests[i]
			g.Disk.WriteSectors(0, buf, func(err error) {
				if err != nil {
					return
				}
				g.Disk.ReadSectors(0, 4096, func(data []byte, err error) {
					if err != nil {
						return
					}
					f.BlkChecksum += fnv1a(uint64(i), data)
					okRead++
				})
			})
		}
		want := hi - lo
		drive(sys, func() bool { return okRead == want }, 20_000_000)
	}

	// --- Fairness phase ---
	// Tenant 0 bursts 10x everyone else's frames; the DRR lanes clamp it
	// to one quantum per round, so by the time it has been served two
	// bursts' worth (the snapshot taken in the delivery callback above)
	// every well-behaved tenant's whole burst is through. The backlog
	// then drains to quiesce through Cluster.Run, so the per-tenant
	// counters below are end-state facts.
	base := append([]int(nil), gotClient...)
	fairArmed = true
	for i, g := range rig.Guests {
		n := fairBurst
		if i == 0 {
			n = 10 * fairBurst
		}
		for k := 0; k < n; k++ {
			for j := range payload {
				payload[j] = byte(i*31 + k*5 + j)
			}
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(30000+k%1000), payload)
		}
	}
	sys.Cluster.Run()
	f.MinShare = fleetMinShare(fairSnap, base)

	// --- Per-tenant table ---
	var tag uint64
	for _, v := range rig.ND.Driver.VIFs() {
		st := v.Stats()
		f.TenantTxFrames += st.TxFrames
		f.TenantTxBytes += st.TxBytes
		f.TenantRxFrames += st.RxFrames
		f.Drops += st.RxQueueDrops + st.RxNoBufDrops
		tag = tag*1099511628211 + st.TxFrames
		tag = tag*1099511628211 + st.RxFrames
		tag = tag*1099511628211 + st.RxQueueDrops + st.RxNoBufDrops
	}
	for _, inst := range rig.SD.Driver.Instances() {
		b := inst.Stats().Bytes
		f.TenantBlkBytes += b
		tag = tag*1099511628211 + b
	}
	f.TenantChecksum = tag
	for _, lane := range rig.ND.Driver.Lanes() {
		f.Rounds += lane.Rounds()
		scans, marks := lane.DemuxStats()
		f.DemuxScans += scans
		f.DemuxMarks += marks
	}
	f.Posts = sys.Cluster.Posted()
	return f
}

// fairBurst is the per-tenant frame budget of the fairness phase; the
// adversary (tenant 0) offers ten times as much — enough backlog that
// every lane runs multiple DRR rounds before draining.
const fairBurst = 64

// fleetMinShare computes the fairness figure from the snapshot taken
// when the adversary (tenant 0, excluded here) has been served twice a
// well-behaved burst: the minimum well-behaved tenant's delivered count
// (over its baseline) as a fraction of its own offered burst. DRR keeps
// this at 1.0 — the adversary cannot get a full extra quantum ahead of
// any lane-mate — while FIFO service would leave lane-mates near 0.
func fleetMinShare(snap, base []int) float64 {
	if snap == nil {
		return 0
	}
	min := -1
	for i := 1; i < len(snap); i++ {
		c := snap[i] - base[i]
		if min < 0 || c < min {
			min = c
		}
	}
	return float64(min) / float64(fairBurst)
}
