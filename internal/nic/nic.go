// Package nic models physical Ethernet controllers and the cable between
// them: the Intel 82599ES 10-Gigabit pair of the paper's testbed (Table 2),
// directly connected by an SFI/SFP+ cable. The link serializes frames at
// line rate with per-frame overhead (preamble + IFG), applies propagation
// delay, and tail-drops when the transmit queue exceeds its byte capacity —
// which is where nuttcp's UDP loss (Figure 6) comes from.
package nic

import (
	"fmt"

	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

// LinkConfig describes the cable and PHY characteristics.
type LinkConfig struct {
	BitsPerSecond int64    // line rate, e.g. 10e9
	PropDelay     sim.Time // cable + PHY latency, one way
	FrameOverhead int      // preamble + SFD + FCS + IFG bytes per frame
	TxQueueBytes  int64    // NIC transmit queue capacity before tail drop
}

// DefaultLink returns the testbed's 10GbE direct-attach configuration.
func DefaultLink() LinkConfig {
	return LinkConfig{
		BitsPerSecond: 10_000_000_000,
		PropDelay:     600 * sim.Nanosecond,
		FrameOverhead: 24, // 7 preamble + 1 SFD + 4 FCS + 12 IFG
		TxQueueBytes:  8 << 20,
	}
}

// Stats counts NIC traffic.
type Stats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
	TxDrops           uint64
}

// NIC is one Ethernet controller. Its owner (a driver-domain network stack
// or the client host) calls Send for egress and installs a receive upcall
// for ingress. Send is non-blocking; frames queue in the transmit ring and
// drain at line rate.
type NIC struct {
	eng  *sim.Engine
	name string
	mac  netpkt.MAC
	bdf  string

	link *link
	peer *NIC

	cfg         LinkConfig
	txBusyUntil sim.Time
	recv        func(frame *framepool.Buf)
	stats       Stats

	// inbound holds frames serialized onto the wire toward this NIC, each
	// due at its arrival time (transmit end + propagation), one buffer
	// reference per frame.
	inbound *sim.Line[*framepool.Buf]
}

type link struct {
	cfg LinkConfig
}

// New creates a NIC with the given name, MAC, and PCI BDF.
func New(eng *sim.Engine, name string, mac netpkt.MAC, bdf string) *NIC {
	n := &NIC{eng: eng, name: name, mac: mac, bdf: bdf}
	n.inbound = sim.NewLine(eng, n.deliverArrived)
	return n
}

// Name returns the NIC name.
func (n *NIC) Name() string { return n.name }

// MAC returns the hardware address.
func (n *NIC) MAC() netpkt.MAC { return n.mac }

// BDF returns the PCI bus/device/function string used for passthrough.
func (n *NIC) BDF() string { return n.bdf }

// Stats returns a snapshot of the traffic counters.
func (n *NIC) Stats() Stats { return n.stats }

// Connect wires two NICs back to back with the given link characteristics.
func Connect(a, b *NIC, cfg LinkConfig) {
	if cfg.BitsPerSecond <= 0 {
		panic("nic: link needs a positive bit rate")
	}
	l := &link{cfg: cfg}
	a.link, b.link = l, l
	a.peer, b.peer = b, a
	a.cfg, b.cfg = cfg, cfg
}

// SetRecv installs the ingress upcall. Each delivered frame carries one
// buffer reference that the receiver now owns and must Release.
func (n *NIC) SetRecv(fn func(frame *framepool.Buf)) { n.recv = fn }

// wireTime returns the serialization delay of one frame.
func (n *NIC) wireTime(frameLen int) sim.Time {
	bits := int64(frameLen+n.cfg.FrameOverhead) * 8
	return sim.Time(bits * int64(sim.Second) / n.cfg.BitsPerSecond)
}

// QueuedBytes estimates the bytes waiting in the transmit queue.
func (n *NIC) QueuedBytes() int64 {
	backlog := n.txBusyUntil - n.eng.Now()
	if backlog <= 0 {
		return 0
	}
	return int64(backlog) * n.cfg.BitsPerSecond / (8 * int64(sim.Second))
}

// Send queues one frame for transmission. It consumes the caller's buffer
// reference on every path: on success it rides the wire to the peer; on
// tail drop (queue over capacity — exactly what happens to a UDP blast
// above line/processing rate) it is released and Send reports false.
func (n *NIC) Send(frame *framepool.Buf) bool {
	if n.link == nil {
		panic(fmt.Sprintf("nic: %s not connected", n.name))
	}
	if n.QueuedBytes() > n.cfg.TxQueueBytes {
		n.stats.TxDrops++
		frame.Release()
		return false
	}
	start := n.eng.Now()
	if n.txBusyUntil > start {
		start = n.txBusyUntil
	}
	done := start + n.wireTime(frame.Len())
	n.txBusyUntil = done
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(frame.Len())

	n.peer.inbound.Push(done+n.cfg.PropDelay, frame)
	return true
}

// deliverArrived raises one frame whose wire time has passed.
func (n *NIC) deliverArrived(_ sim.Time, frame *framepool.Buf) {
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(frame.Len())
	if n.recv != nil {
		n.recv(frame)
	} else {
		frame.Release()
	}
}
