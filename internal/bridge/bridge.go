// Package bridge implements the learning Ethernet bridge Kite's network
// application creates inside the driver domain (§4.3): it connects the
// physical NIC interface (IF) with every netback virtual interface (VIF),
// learns source MACs, forwards known-unicast frames to one port, and
// floods unknown/broadcast frames — the NetBSD bridge(4) behaviour the
// paper ported brconfig for.
package bridge

import (
	"fmt"
	"slices"

	"kite/internal/flowtab"
	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

// Port is anything the bridge can attach: the physical interface wrapper
// or a netback VIF.
type Port interface {
	PortName() string
	// Deliver hands an egress frame to the port. The port receives one
	// buffer reference and must Release it (directly or by passing it on).
	Deliver(frame *framepool.Buf)
}

// Stats counts bridge activity.
type Stats struct {
	Forwarded uint64
	Flooded   uint64
	Learned   uint64
	Dropped   uint64 // no ports to forward to
	Aged      uint64 // entries evicted by AgeFDB
}

// Bridge is a learning L2 switch running in the driver domain.
type Bridge struct {
	eng  *sim.Engine
	cpus *sim.CPUPool
	name string

	// PerFrameCost is the bridge's forwarding cost charged to the driver
	// domain per frame.
	PerFrameCost sim.Time

	ports []Port
	// trunk is the non-isolated subset of ports in attach order: the flood
	// targets for frames arriving on an isolated port. Fleet mode isolates
	// every tenant VIF (they only ever talk through the NAT router), so one
	// tenant's ARP broadcast reaches the router port instead of fanning out
	// a copy to every other tenant — without this, fleet bring-up is an
	// O(tenants²) flood storm.
	trunk []Port
	iso   map[Port]bool
	// fdb is the forwarding database: learned MAC → port, each entry's Seen
	// the arrival time of the last frame from that MAC.
	fdb   *flowtab.Table[netpkt.MAC, Port]
	stats Stats

	// shared is the lane frames from Input ride: the bridge-wide egress FIFO,
	// forwarding cost charged to whichever vCPU of cpus is free first.
	shared *Lane
}

// delivery is a forwarded frame waiting for its charge to complete. The
// line holds one buffer reference per entry.
type delivery struct {
	to    Port
	frame *framepool.Buf
}

// New creates a bridge named name whose forwarding work is charged to cpus.
func New(eng *sim.Engine, cpus *sim.CPUPool, name string) *Bridge {
	b := &Bridge{
		eng: eng, cpus: cpus, name: name,
		PerFrameCost: 300 * sim.Nanosecond,
		fdb:          flowtab.New[netpkt.MAC, Port](fdbSeed),
		iso:          make(map[Port]bool),
	}
	b.shared = b.NewLane(nil)
	return b
}

// Name returns the bridge name (xenbr0 in the artifact's configs).
func (b *Bridge) Name() string { return b.name }

// Stats returns a snapshot of the counters.
func (b *Bridge) Stats() Stats { return b.stats }

// Ports returns the attached ports.
func (b *Bridge) Ports() []Port { return b.ports }

// AddPort attaches a port (brconfig add).
func (b *Bridge) AddPort(p Port) {
	for _, q := range b.ports {
		if q == p {
			panic(fmt.Sprintf("bridge: port %s added twice", p.PortName()))
		}
	}
	b.ports = append(b.ports, p)
	if !b.iso[p] {
		b.trunk = append(b.trunk, p)
	}
}

// SetIsolated marks or clears port isolation (the bridge-port "isolated"
// flag): frames from an isolated port are never flooded to other isolated
// ports, only to trunk ports. Known-unicast forwarding is unaffected.
// Isolating a port takes it out of the trunk, scanning from the tail,
// where fleet bring-up has just attached it; only clearing isolation
// re-derives the trunk.
func (b *Bridge) SetIsolated(p Port, iso bool) {
	switch {
	case iso && !b.iso[p]:
		b.iso[p] = true
		for i := len(b.trunk) - 1; i >= 0; i-- {
			if b.trunk[i] == p {
				b.trunk = slices.Delete(b.trunk, i, i+1)
				break
			}
		}
	case !iso && b.iso[p]:
		delete(b.iso, p)
		b.rebuildTrunk()
	}
}

// rebuildTrunk re-derives the non-isolated port list in attach order
// (control plane only; flood scans read it).
func (b *Bridge) rebuildTrunk() {
	b.trunk = b.trunk[:0]
	for _, p := range b.ports {
		if !b.iso[p] {
			b.trunk = append(b.trunk, p)
		}
	}
}

// RemovePort detaches a port and flushes its learned addresses (a guest or
// backend went away).
func (b *Bridge) RemovePort(p Port) {
	for i, q := range b.ports {
		if q == p {
			b.ports = append(b.ports[:i], b.ports[i+1:]...)
			break
		}
	}
	delete(b.iso, p)
	b.rebuildTrunk()
	b.fdb.Each(func(e *flowtab.Entry[netpkt.MAC, Port]) {
		if e.Val == p {
			b.fdb.Remove(e)
		}
	})
}

// fdbSeed keys the FDB's Toeplitz tables: independent from the rig's RSS
// seed on purpose — steering collisions must not imply FDB probe collisions.
const fdbSeed = 0xFDB0_5EED_0000_0001

// macHash pads the 6-byte MAC into the Toeplitz window.
//
//kite:hotpath
func (b *Bridge) macHash(mac netpkt.MAC) uint32 {
	var in [12]byte
	copy(in[0:6], mac[:])
	return b.fdb.Hash(&in)
}

// learn records mac behind port, last seen now, and reports whether the
// entry is new or moved ports (the Learned counter's trigger).
//
//kite:hotpath
func (b *Bridge) learn(mac netpkt.MAC, port Port, now sim.Time) bool {
	h := b.macHash(mac)
	if e := b.fdb.Lookup(h, mac); e != nil {
		moved := e.Val != port
		e.Val, e.Seen = port, now
		return moved
	}
	e, _ := b.fdb.Insert(h, mac, now)
	e.Val = port
	b.AgeFDB(fdbMaxIdle)
	return true
}

// Lookup returns the port a MAC was learned on, or nil.
//
//kite:hotpath
func (b *Bridge) Lookup(mac netpkt.MAC) Port {
	if e := b.fdb.Lookup(b.macHash(mac), mac); e != nil {
		return e.Val
	}
	return nil
}

// FDBLen returns the number of learned MAC entries.
func (b *Bridge) FDBLen() int { return b.fdb.Len() }

// fdbMaxIdle is how long a learned MAC outlives its last frame: NetBSD
// brconfig's default address timeout, 1200 s.
const fdbMaxIdle = 1200 * sim.Second

// AgeFDB evicts entries idle longer than maxIdle and returns the count, so
// departed guests do not pin table space. learn runs it with fdbMaxIdle on
// each new entry, with no timer to keep an idle simulation alive. A new
// MAC is warmup: steady state re-learns the ones it knows.
//
//kite:coldpath
func (b *Bridge) AgeFDB(maxIdle sim.Time) int {
	n := b.fdb.Expire(b.eng.Now(), maxIdle, nil)
	b.stats.Aged += uint64(n)
	return n
}

// FrameDevice is any frame-level device (a physical NIC, or a stack-less
// interface) that can be attached to the bridge. Send consumes one buffer
// reference on every path; SetRecv's callback receives one reference per
// frame that the callee owns.
type FrameDevice interface {
	Send(frame *framepool.Buf) bool
	SetRecv(fn func(frame *framepool.Buf))
}

type devicePort struct {
	name string
	dev  FrameDevice
}

func (p *devicePort) PortName() string             { return p.name }
func (p *devicePort) Deliver(frame *framepool.Buf) { p.dev.Send(frame) }

// AttachDevice wires a frame device into the bridge as a port: egress
// frames go to dev.Send and received frames enter the bridge. This is how
// the network application connects the physical IF to xenbr0.
func (b *Bridge) AttachDevice(name string, dev FrameDevice) Port {
	p := &devicePort{name: name, dev: dev}
	dev.SetRecv(func(f *framepool.Buf) { b.Input(p, f) })
	b.AddPort(p)
	return p
}

// Input processes one frame arriving from a port: learn, then forward or
// flood. The bridge consumes the caller's buffer reference: dropped frames
// are released immediately; forwarded frames carry the reference to the
// egress port (flooding Retains one extra reference per additional port).
// Forwarding cost is charged to the driver domain's CPUs and delivery
// happens at charge completion.
func (b *Bridge) Input(from Port, frame *framepool.Buf) {
	b.shared.InputAt(from, frame, b.eng.Now())
}

// Lane is a forwarding lane: one egress FIFO and the vCPU its forwarding
// cost is charged to. A pinned lane serves a single source queue, the way a
// multi-queue backend pins per-queue forwarding threads feeding per-queue
// NIC TX rings: it has exactly one producer whose arrival times are
// monotone, so a batched replay through InputAt charges and delivers at the
// same virtual times one event per frame would have — without the shared
// pool's work stealing or the bridge-wide egress watermark serializing lanes
// against each other. The bridge's own lane (cpu nil) is that bridge-wide
// FIFO, charging the shared pool.
type Lane struct {
	b   *Bridge
	cpu *sim.CPU // nil: whichever vCPU of the bridge's pool is free first
	// outq holds forwarded frames until their CPU charge completes. Its
	// watermark keeps the lane in order even though charge completion
	// times across different CPUs are not monotonic.
	outq *sim.Line[delivery]
}

// NewLane creates a forwarding lane pinned to cpu (nil: the shared pool).
func (b *Bridge) NewLane(cpu *sim.CPU) *Lane {
	l := &Lane{b: b, cpu: cpu}
	l.outq = sim.NewLine(b.eng, deliver)
	return l
}

// InputAt processes one frame arriving on this lane at the virtual time at,
// which may lie beyond the executing event's timestamp (see CPU.ChargeAt).
// at must be nondecreasing across calls — the lane models one FIFO queue.
//
// It is the learn/forward/flood core: forwarding cost chains on the lane's
// CPU starting no earlier than at, and delivery rides the lane's line.
func (l *Lane) InputAt(from Port, frame *framepool.Buf, at sim.Time) {
	b := l.b
	pkt := frame.Bytes()
	if len(pkt) < netpkt.EthHeaderLen {
		b.stats.Dropped++
		frame.Release()
		return
	}
	var dst, src netpkt.MAC
	copy(dst[:], pkt[0:6])
	copy(src[:], pkt[6:12])

	if src != netpkt.Broadcast {
		// Learn at the frame's own arrival, not the executing event's time:
		// a carrier replays frames ahead of their stamps, and an entry's
		// seen time must not depend on how its frame was carried.
		if b.learn(src, from, max(at, b.eng.Now())) {
			b.stats.Learned++
		}
	}

	// Only pinned lanes replay future arrivals; the shared lane is reached
	// through Input, at the executing event's time.
	var done sim.Time
	if l.cpu != nil {
		done = l.cpu.ChargeAt(at, b.PerFrameCost)
	} else {
		done = b.cpus.Charge(b.PerFrameCost)
	}
	if dst != netpkt.Broadcast {
		if out := b.Lookup(dst); out != nil {
			if out == from {
				b.stats.Dropped++ // destination is behind the source port
				frame.Release()
				return
			}
			b.stats.Forwarded++
			l.outq.Push(done, delivery{to: out, frame: frame})
			return
		}
	}
	// Flood: broadcast or unknown destination. An isolated source floods
	// only to the trunk ports.
	targets := b.ports
	if b.iso[from] {
		targets = b.trunk
	}
	sent := false
	for _, p := range targets {
		if p == from {
			continue
		}
		if sent {
			frame.Retain() // one extra reference per additional flood target
		}
		sent = true
		l.outq.Push(done, delivery{to: p, frame: frame})
	}
	if sent {
		b.stats.Flooded++
	} else {
		b.stats.Dropped++
		frame.Release()
	}
}

// deliver hands one matured frame to its egress port.
func deliver(_ sim.Time, d delivery) { d.to.Deliver(d.frame) }
