package main

import (
	"kite/internal/blkback"
	"kite/internal/core"
	"kite/internal/netback"
	"kite/internal/netstack"
	"kite/internal/nic"
	"kite/internal/nvme"
	"kite/internal/sim"
)

// rig is what the harness keeps of a built topology: the handles every
// workload drives and every counter snapshot reads. Rigs are only ever
// built by the public constructors of internal/core.
type rig struct {
	sys    *core.System
	eng    *sim.Engine
	nd     *core.NetworkDomain // nil on storage rigs
	sd     *core.StorageDomain // nil on network rigs
	guests []*core.Guest
	client *netstack.Host
	srvNIC *nic.NIC
	nvme   *nvme.Device

	// Attach-order lists are copied out once: the drivers' accessors
	// allocate, and no workload attaches or detaches after set-up.
	vifs  []*netback.VIF
	insts []*blkback.Instance
}

func newRig(tb *core.Testbed, nd *core.NetworkDomain, sd *core.StorageDomain, guests []*core.Guest) *rig {
	r := &rig{sys: tb.System, eng: tb.System.Eng, nd: nd, sd: sd, guests: guests,
		client: tb.Client, srvNIC: tb.ServerNIC, nvme: tb.NVMe}
	if nd != nil {
		r.vifs = nd.Driver.VIFs()
	}
	if sd != nil {
		r.insts = sd.Driver.Instances()
	}
	return r
}

// setWorkers applies the benches' rule: cluster workers = min(shards,
// nproc), or exactly 1 when serial is asked for. Serial rigs ignore it.
func (r *rig) setWorkers(n int) {
	if c := r.sys.Cluster; c != nil {
		c.SetWorkers(min(c.Shards(), n))
	}
}

// ddCPUs returns the driver domain's vCPU pool — the paper's "lightweight"
// cost is the busy time on these.
func (r *rig) ddCPUs() *sim.CPUPool {
	if r.nd != nil {
		return r.nd.Dom.CPUs
	}
	return r.sd.Dom.CPUs
}

// counter indexes one raw figure read from a layer's public accessors.
// Counts and simulated busy times are deterministic for a seed; the
// harness only ever reports deltas between slice boundaries (fdbLen, a
// gauge, excepted).
type counter int

const (
	cSimNow counter = iota // simulated clock, ns
	cSimEvents
	cClWindows
	cClPosted
	cClFused
	cXenEvtchn
	cXenCopies
	cXenCopiedBytes
	cXenMaps
	cXenHypercallNS
	cDemuxScans
	cDemuxMarks
	cLaneRounds
	cNfTxRingFull
	cNbRxPersistHits
	cNbRxPersistMisses
	cNbRxDrops // RxQueueDrops + RxNoBufDrops
	cBrForwarded
	cBrFlooded
	cFdbLen // gauge
	cNicTxDrops
	cNicWireBits // (bytes + per-frame overhead) * 8 over both directions
	cNicFrames
	cNfFrames // netfront Tx + Rx frames: one ring cycle each
	cFpGets
	cFpRecycled
	cBfRingRequests
	cBfIndirect
	cBfQueuedFull
	cBbRingRequests
	cBbSegments
	cBbDeviceOps
	cBbPersistentHits
	cBbErrors
	cNvCmds
	cNvBytes
	cNvReadCmds
	cNvReadBytes
	cBpGets
	cBpRecycled
	cBusyGuest
	cBusyBackend
	cBusyBridge
	cBusyClient
	cBusyDD
	nCounters
)

var counterNames = [nCounters]string{
	"sim.now_ns", "sim.events", "sim.cluster.windows", "sim.cluster.posted", "sim.cluster.fused",
	"xen.evtchn_sends", "xen.grant_copies", "xen.copied_bytes", "xen.grant_maps",
	"xen.hypercall_sim_ns", "xen.demux.scans", "xen.demux.marks", "netback.lane.rounds",
	"netfront.tx_ring_full", "netback.rx_persist_hits", "netback.rx_persist_misses", "netback.rx_drops",
	"bridge.forwarded", "bridge.flooded", "bridge.fdb_len",
	"nic.tx_drops", "nic.wire_bits", "nic.tx_frames", "netfront.frames", "framepool.gets", "framepool.recycled",
	"blkfront.ring_requests", "blkfront.indirect", "blkfront.queued_full",
	"blkback.ring_requests", "blkback.segments", "blkback.device_ops", "blkback.persistent_hits",
	"blkback.errors", "nvme.cmds", "nvme.bytes", "nvme.read_cmds", "nvme.read_bytes",
	"blkpool.gets", "blkpool.recycled",
	"sim_busy.guest_ns", "sim_busy.backend_ns", "sim_busy.bridge_ns", "sim_busy.client_ns", "sim_busy.dd_ns",
}

type snapshot [nCounters]uint64

// snap reads every counter. It is only called at slice boundaries, with
// the engine drained, so no shard goroutine is live.
func (r *rig) snap() (s snapshot) {
	s[cSimNow] = uint64(r.eng.Now())
	s[cSimEvents] = r.eng.Processed()
	if c := r.sys.Cluster; c != nil {
		s[cClWindows], s[cClPosted], s[cClFused] = c.Windows(), c.Posted(), c.Fused()
	}
	hv := r.sys.HV.Stats()
	s[cXenEvtchn], s[cXenCopies], s[cXenCopiedBytes] = hv.EventSends, hv.GrantCopies, hv.CopiedBytes
	s[cXenMaps], s[cXenHypercallNS] = hv.GrantMaps, uint64(hv.HypercallNS)

	for _, g := range r.guests {
		s[cBusyGuest] += uint64(g.Dom.CPUs.BusyTotal())
		if g.Net != nil {
			st := g.Net.Stats()
			s[cNfTxRingFull] += st.TxRingFull
			s[cNfFrames] += st.TxFrames + st.RxFrames
		}
		if g.Disk != nil {
			st := g.Disk.Stats()
			s[cBfRingRequests] += st.RingRequests
			s[cBfIndirect] += st.IndirectRequests
			s[cBfQueuedFull] += st.QueuedFull
		}
	}
	s[cBusyClient] = uint64(r.client.CPUs.BusyTotal())
	dd := r.ddCPUs()
	s[cBusyDD] = uint64(dd.BusyTotal())
	// CreateNetworkDomain pins queue/lane workers to vCPUs [0, shards) and
	// hands the bridge the rest; on a serial rig there is no split and
	// everything counts as backend.
	workers := dd.Len()
	if qs := r.sys.QueueShards(); r.nd != nil && qs != nil && dd.Len() > len(qs) {
		workers = len(qs)
	}
	for i := 0; i < dd.Len(); i++ {
		if i < workers {
			s[cBusyBackend] += uint64(dd.CPU(i).BusyTotal())
		} else {
			s[cBusyBridge] += uint64(dd.CPU(i).BusyTotal())
		}
	}

	if r.nd != nil {
		for _, l := range r.nd.Driver.Lanes() {
			scans, marks := l.DemuxStats()
			s[cDemuxScans] += scans
			s[cDemuxMarks] += marks
			s[cLaneRounds] += l.Rounds()
		}
		for _, v := range r.vifs {
			st := v.Stats()
			s[cNbRxPersistHits] += st.RxPersistHits
			s[cNbRxPersistMisses] += st.RxPersistMisses
			s[cNbRxDrops] += st.RxQueueDrops + st.RxNoBufDrops
		}
		br := r.nd.Bridge.Stats()
		s[cBrForwarded], s[cBrFlooded] = br.Forwarded, br.Flooded
		s[cFdbLen] = uint64(r.nd.Bridge.FDBLen())
	}
	overhead := uint64(linkCfg.FrameOverhead)
	for _, n := range []*nic.NIC{r.srvNIC, r.client.NIC} {
		st := n.Stats()
		s[cNicTxDrops] += st.TxDrops
		s[cNicWireBits] += 8 * (st.TxBytes + overhead*st.TxFrames)
		s[cNicFrames] += st.TxFrames
	}
	s[cFpGets], s[cFpRecycled] = r.sys.Pool.Gets(), r.sys.Pool.Recycled()

	if r.sd != nil {
		for _, l := range r.sd.Driver.Lanes() {
			scans, marks := l.DemuxStats()
			s[cDemuxScans] += scans
			s[cDemuxMarks] += marks
		}
		for _, inst := range r.insts {
			st := inst.Stats()
			s[cBbRingRequests] += st.RingRequests
			s[cBbSegments] += st.Segments
			s[cBbDeviceOps] += st.DeviceOps
			s[cBbPersistentHits] += st.PersistentHits
			s[cBbErrors] += st.Errors
		}
	}
	nv := r.nvme.Stats()
	s[cNvCmds] = nv.ReadOps + nv.WriteOps + nv.FlushOps
	s[cNvBytes] = nv.ReadBytes + nv.WriteBytes
	s[cNvReadCmds], s[cNvReadBytes] = nv.ReadOps, nv.ReadBytes
	s[cBpGets], s[cBpRecycled] = r.sys.BlkPool.Gets(), r.sys.BlkPool.Recycled()
	return s
}

// sub returns b - a for every counter, keeping gauges at their b value.
func (b snapshot) sub(a snapshot) (d snapshot) {
	for i := range d {
		d[i] = b[i] - a[i]
	}
	d[cFdbLen] = b[cFdbLen]
	return d
}

// outstanding is the leak check made at every slice boundary.
func (r *rig) outstanding() int {
	return r.sys.Pool.Outstanding() + r.sys.BlkPool.Outstanding()
}
