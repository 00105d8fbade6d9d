package xen

import (
	"fmt"

	"kite/internal/sim"
)

// Port identifies an event channel endpoint within one domain.
type Port uint32

// warmWindow is how long after its last execution a vCPU still takes
// interrupts without the full halt-wakeup path (shallow C-state residency,
// tickless grace). Sustained workloads therefore see much lower event
// latency than one-shot pings — the gap between Figure 7's ping and
// netperf rows.
const warmWindow = 75 * sim.Microsecond

type chanState int

const (
	chanUnbound chanState = iota
	chanConnected
	chanClosed
)

// channel is one endpoint of an inter-domain event channel. A doorbell
// reads the channel and its peer, and of a pinned peer's state only the
// vCPU it charges: the engine and the domain's IRQ latency are copied in,
// and a dead domain's channels are closed (DestroyDomain), so no hop loads
// the domain to learn it died.
type channel struct {
	port    Port
	dom     *Domain
	state   chanState
	peerDom DomID // for unbound: the only domain allowed to bind
	peer    *channel

	handler func()
	// cpu, when set, pins this endpoint to one vCPU: Notify charges it on
	// send and raise delivers to it (on its shard engine, eng) on receive.
	// Pinned ports are what let per-queue event channels live entirely on
	// their queue's cluster shard.
	cpu *sim.CPU
	eng *sim.Engine
	// irq is the domain's IRQLatency, fixed when the domain is built.
	irq sim.Time
	// pending models the per-channel pending bit: upcalls coalesce while
	// one is already in flight, exactly like Xen's level-triggered events.
	pending bool
	// lastEvent is the virtual time of the last delivered upcall on a
	// pinned port (shard-local clock): a port streaming interrupts keeps
	// its vCPU out of deep idle even when the handler work is charged
	// elsewhere, so recent delivery counts as warmth like recent execution.
	lastEvent sim.Time
	// deliverF is the cached upcall closure; raise schedules it without
	// allocating on every event.
	deliverF func()
	// demux, when set, routes this endpoint's upcalls through a batched
	// demux group (see demux.go): raise marks demuxIdx's bit instead of
	// scheduling a per-channel upcall.
	demux    *Demux
	demuxIdx int

	sends     uint64
	delivered uint64
}

// AllocUnbound allocates a new unbound channel that remote may later bind
// (EVTCHNOP_alloc_unbound). It returns the local port to advertise in
// xenstore.
func (d *Domain) AllocUnbound(remote DomID) Port {
	d.nextPort++
	ch := &channel{port: d.nextPort, dom: d, state: chanUnbound, peerDom: remote, irq: d.IRQLatency}
	d.setPort(ch.port, ch)
	return ch.port
}

// BindInterdomain connects a local port to a remote domain's advertised
// unbound port (EVTCHNOP_bind_interdomain).
func (d *Domain) BindInterdomain(remote DomID, remotePort Port) (Port, error) {
	if d.dead {
		// Its channels are all closed, and no new one may connect.
		return 0, fmt.Errorf("xen: bind from dead domain %d", d.ID)
	}
	rd := d.hv.Domain(remote)
	if rd == nil {
		return 0, fmt.Errorf("xen: bind to dead domain %d", remote)
	}
	rch := rd.port(remotePort)
	if rch == nil || rch.state != chanUnbound {
		return 0, fmt.Errorf("xen: remote port %d/%d not unbound", remote, remotePort)
	}
	if rch.peerDom != d.ID {
		return 0, fmt.Errorf("xen: port %d/%d reserved for domain %d, not %d",
			remote, remotePort, rch.peerDom, d.ID)
	}
	d.nextPort++
	lch := &channel{port: d.nextPort, dom: d, state: chanConnected, peerDom: remote, peer: rch, irq: d.IRQLatency}
	d.setPort(lch.port, lch)
	rch.state = chanConnected
	rch.peer = lch
	return lch.port, nil
}

// SetHandler installs the upcall handler for a local port. The handler runs
// on one of the domain's vCPUs after the domain's IRQLatency.
func (d *Domain) SetHandler(port Port, fn func()) error {
	ch := d.port(port)
	if ch == nil {
		return fmt.Errorf("xen: SetHandler on unknown port %d", port)
	}
	ch.handler = fn
	return nil
}

// BindPortCPU pins a local port to one vCPU: sends charge that vCPU and
// upcalls are delivered on it (through its engine, which may be a cluster
// shard). Binding is done at connect time, before any traffic flows, and
// after the vCPU is on its shard (sim.CPU.SetEngine).
func (d *Domain) BindPortCPU(port Port, cpu *sim.CPU) error {
	ch := d.port(port)
	if ch == nil {
		return fmt.Errorf("xen: BindPortCPU on unknown port %d", port)
	}
	ch.cpu, ch.eng = cpu, cpu.Engine()
	ch.deliverF = ch.deliver // eager: first raise may come from another shard's peer
	return nil
}

// Notify sends an event on a connected local port (EVTCHNOP_send). The
// hypercall is charged to the calling domain; delivery to the peer's
// handler happens after the peer's IRQ latency. Notifying a closed channel
// is a silent no-op, as on real Xen where the peer may have gone away; so is
// a dead domain's notify — work it scheduled before it died still runs, on
// ports its death closed, and is charged nothing.
//
//kite:hotpath
func (d *Domain) Notify(port Port) {
	if d.dead {
		return
	}
	ch := d.port(port)
	if ch == nil {
		panic(fmt.Sprintf("xen: notify on unknown port %d in %s", port, d.Name))
	}
	d.hv.stats.EventSends++
	if ch.cpu != nil {
		d.chargeOn(ch.cpu, d.hv.Costs.Base+d.hv.Costs.EventSend)
	} else {
		d.charge(d.hv.Costs.Base + d.hv.Costs.EventSend)
	}
	ch.sends++
	if ch.state != chanConnected || ch.peer == nil {
		return
	}
	ch.peer.raise()
}

// raise marks the channel pending on its owning domain and schedules the
// upcall if one is not already in flight. Delivery latency depends on the
// vCPU's state: waking an idle (halted) vCPU costs the domain's full
// IRQLatency (hypervisor unblock + VM entry), while a running vCPU takes
// the upcall almost immediately — the effect that makes cold request-
// response latency much worse than streaming latency on real Xen. Only a
// connected peer raises, so the channel is live: its domain's death would
// have closed it.
//
//kite:hotpath
func (c *channel) raise() {
	if c.pending {
		return
	}
	c.pending = true
	if c.demux != nil {
		c.demux.mark(c.demuxIdx)
		return
	}
	cpu := c.cpu
	lat := c.irq
	var eng *sim.Engine
	if cpu != nil {
		// Pinned port: deliver on the bound vCPU's engine (its cluster
		// shard) and judge warmth from that vCPU alone — shared-pool state
		// is off limits from a shard.
		eng = c.eng
		now := eng.Now()
		if cpu.RecentlyActive(now, warmWindow) ||
			(c.lastEvent > 0 && now-c.lastEvent <= warmWindow) {
			lat /= 16
		}
	} else {
		eng = c.dom.hv.Eng
		cpu = c.dom.CPUs.Pick()
		if c.dom.CPUs.RecentlyActive(eng.Now(), warmWindow) {
			lat /= 16 // vCPU running or in a shallow idle state: cheap upcall
		}
	}
	if c.deliverF == nil {
		c.deliverF = c.deliver
	}
	eng.Schedule(cpu.FreeAt()+lat, c.deliverF)
}

// deliver is the upcall body: clear the pending bit and run the handler.
// A channel its domain's death closed runs nothing.
//
//kite:hotpath
func (c *channel) deliver() {
	c.pending = false
	if c.state != chanConnected {
		return
	}
	c.delivered++
	if c.eng != nil {
		c.lastEvent = c.eng.Now()
	}
	if c.handler != nil {
		c.handler()
	}
}

// Close shuts a local port; the peer transitions to closed too.
func (d *Domain) Close(port Port) error {
	if d.port(port) == nil {
		return fmt.Errorf("xen: close of unknown port %d", port)
	}
	d.closePort(port)
	return nil
}

func (d *Domain) closePort(port Port) {
	ch := d.port(port)
	if ch == nil {
		return
	}
	if ch.peer != nil {
		ch.peer.state = chanClosed
		ch.peer.peer = nil
	}
	ch.state = chanClosed
	ch.peer = nil
	d.ports[port] = nil
}

// ChannelStats reports (sends, deliveries) for a local port; zero values
// for unknown ports.
func (d *Domain) ChannelStats(port Port) (sends, delivered uint64) {
	if ch := d.port(port); ch != nil {
		return ch.sends, ch.delivered
	}
	return 0, 0
}
