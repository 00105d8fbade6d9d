// Package netstack is the minimal TCP/IP stack used by every endpoint in
// the simulation: the client load-generator host, DomU guests (over
// netfront), and the Kite driver domain's own interface (for ifconfig-style
// addressing and the DHCP daemon VM). It speaks ARP, IPv4 with
// fragmentation, ICMP echo, UDP, and a flow-controlled TCP subset with
// go-back-N retransmission.
//
// The stack charges per-packet and per-byte CPU costs to its owner's vCPUs;
// the difference between a Linux guest (syscall crossings) and a rumprun
// unikernel (function calls) enters the experiments through the Costs
// struct.
//
// Frames travel as pooled buffers (framepool.Buf): the stack builds each
// outgoing frame once — the L4 header and payload copied straight into the
// buffer, then IP and Ethernet headers prepended into its headroom — and
// hands exactly one reference to the device. Received frames arrive as one
// reference the stack owns and releases after synchronous protocol
// processing.
package netstack

import (
	"fmt"

	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

// NetIf is the device interface a stack drives: a physical NIC, a netfront
// device, or a driver-domain VIF.
type NetIf interface {
	MAC() netpkt.MAC
	// Send queues one Ethernet frame; false means the frame was dropped.
	// Send consumes the caller's buffer reference on every path.
	Send(frame *framepool.Buf) bool
	// SetRecv installs the ingress upcall. Each delivered frame carries one
	// reference the callee owns.
	SetRecv(fn func(frame *framepool.Buf))
}

// TimedFrame is one frame of a batched device hand-off, stamped with the
// virtual time its Tx charge completes. Stamps are nondecreasing within a
// batch.
type TimedFrame struct {
	At    sim.Time
	Frame *framepool.Buf
}

// BatchSender is an optional NetIf capability: a device that accepts a whole
// burst of stamped frames in one call. Frames may be handed over before
// their stamps mature — the device must not let a frame take effect before
// its At — which lets the stack drain its Tx queue in one flush instead of
// one timer event per frame. SendBatch consumes one buffer reference per
// frame on every path; the slice is only valid for the duration of the call.
type BatchSender interface {
	NetIf
	BatchCapable() bool
	SendBatch(frames []TimedFrame)
}

// Costs models the OS-dependent software path.
type Costs struct {
	PerPacket sim.Time // IP/driver processing per packet
	PerKB     sim.Time // data-touching cost (checksum, copies) per KiB
	Syscall   sim.Time // app/kernel boundary crossing (0 in a unikernel)
}

// LinuxGuestCosts returns the stack costs of the Ubuntu 18.04 DomU.
func LinuxGuestCosts() Costs {
	return Costs{PerPacket: 900 * sim.Nanosecond, PerKB: 45 * sim.Nanosecond, Syscall: 250 * sim.Nanosecond}
}

// RumprunCosts returns the stack costs of a Kite unikernel domain: no
// user/kernel crossing, slightly leaner per-packet path (NetBSD stack
// without cgroups/netfilter layers).
func RumprunCosts() Costs {
	return Costs{PerPacket: 700 * sim.Nanosecond, PerKB: 45 * sim.Nanosecond, Syscall: 0}
}

// Stats counts stack traffic.
type Stats struct {
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	RxDropNoHandler      uint64
	ARPRequests          uint64
	ARPReplies           uint64
}

// UDPPacket is a received datagram handed to a bound handler. Data aliases
// stack-owned receive storage and is only valid for the duration of the
// handler call.
type UDPPacket struct {
	Src     netpkt.IP
	SrcPort uint16
	Dst     netpkt.IP
	Data    []byte
}

// Stack is one endpoint's network stack.
type Stack struct {
	Name string

	eng   *sim.Engine
	cpus  *sim.CPUPool
	ifc   NetIf
	ip    netpkt.IP
	costs Costs
	rng   sim.Rand // by value: every frame's cost draws from it
	pool  *framepool.Pool

	// arp is the neighbour table. lastIP/lastMAC is the entry sendIPBuf
	// last resolved from it, valid while lastOK: a send to the same next
	// hop reads the stack alone. handleARP and linkDown clear it.
	arp        map[netpkt.IP]netpkt.MAC
	lastIP     netpkt.IP
	lastMAC    netpkt.MAC
	lastOK     bool
	arpPending []parked // IP packets (refs held) awaiting resolution, in push order
	reasm      *netpkt.Reassembler
	ipID       uint16

	udpBinds map[uint16]func(UDPPacket)
	pingWait map[uint16]pingWaiter

	listeners map[uint16]func(*Conn)
	conns     map[connKey]*Conn
	nextPort  uint16
	nextPing  uint16

	// Frames wait in one line per direction until their CPU charge
	// completes; a line never reorders the frames of one flow even when
	// per-frame costs differ.
	txq, rxq *sim.Line[*framepool.Buf]

	// batch is the device's batched-send capability (nil without one); when
	// set, sendTx drains the whole Tx line as one stamped burst through
	// txScratch, a reused staging slice.
	batch     BatchSender
	txScratch []TimedFrame

	stats Stats
}

type pingWaiter struct {
	sentAt sim.Time
	cb     func(rtt sim.Time)
}

// Config bundles the stack constructor arguments.
type Config struct {
	Name  string
	CPUs  *sim.CPUPool
	Iface NetIf
	IP    netpkt.IP
	Costs Costs
	Seed  uint64
	// Pool is the simulation's frame pool. A private pool is created when
	// nil (convenient for unit tests).
	Pool *framepool.Pool
}

// New creates a stack and attaches it to its interface.
func New(eng *sim.Engine, cfg Config) *Stack {
	pool := cfg.Pool
	if pool == nil {
		pool = framepool.New()
	}
	s := &Stack{
		Name:      cfg.Name,
		eng:       eng,
		cpus:      cfg.CPUs,
		ifc:       cfg.Iface,
		ip:        cfg.IP,
		costs:     cfg.Costs,
		rng:       *sim.NewRand(cfg.Seed ^ 0x57ac),
		pool:      pool,
		arp:       make(map[netpkt.IP]netpkt.MAC),
		reasm:     netpkt.NewReassembler(),
		udpBinds:  make(map[uint16]func(UDPPacket)),
		pingWait:  make(map[uint16]pingWaiter),
		listeners: make(map[uint16]func(*Conn)),
		conns:     make(map[connKey]*Conn),
		nextPort:  33000,
	}
	s.txq = sim.NewLine(eng, s.sendTx)
	s.rxq = sim.NewLine(eng, s.recvRx)
	if bs, ok := cfg.Iface.(BatchSender); ok && bs.BatchCapable() {
		s.batch = bs // the device's batched send, when it has one
	}
	cfg.Iface.SetRecv(s.rxFrame)
	// A device that reports carrier loss (a vif whose backend went) gets
	// the stack's neighbour state flushed with it.
	if ld, ok := cfg.Iface.(interface{ SetOnDown(func()) }); ok {
		ld.SetOnDown(s.linkDown)
	}
	return s
}

// linkDown is the carrier-loss handler: like a real kernel dropping its
// neighbour queue on link down, packets parked awaiting ARP resolution
// are released — the reply can never arrive through a dead device, and a
// churning fleet must not pin a burst of frame buffers per departed
// tenant. The ARP cache itself is flushed too; entries learned through
// the old link are stale on whatever replaces it.
func (s *Stack) linkDown() {
	s.arp = make(map[netpkt.IP]netpkt.MAC)
	s.lastOK = false
	for _, p := range s.arpPending {
		p.pkt.Release()
	}
	s.arpPending = nil
}

// IP returns the stack's address.
func (s *Stack) IP() netpkt.IP { return s.ip }

// Engine returns the simulation engine.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// CPUs returns the vCPU pool the stack charges.
func (s *Stack) CPUs() *sim.CPUPool { return s.cpus }

// Stats returns a snapshot of the counters.
func (s *Stack) Stats() Stats { return s.stats }

func (s *Stack) dataCost(n int) sim.Time {
	// A few percent of per-packet jitter (cache/TLB luck) so repeated runs
	// under different seeds show the small RSDs of Table 4.
	base := s.costs.PerPacket + sim.Time(n)*s.costs.PerKB/1024
	return s.rng.Jitter(base, 0.04)
}

// queueTx holds frame until the Tx charge completes, then hands its
// reference to the device.
func (s *Stack) queueTx(cost sim.Time, frame *framepool.Buf) {
	s.txq.Push(s.cpus.Charge(cost), frame)
}

// sendTx hands one due frame to the device. A batch-capable device gets it
// with the rest of the Tx line as one stamped burst: the device honours
// each frame's completion stamp, so no per-frame pacing event is needed.
func (s *Stack) sendTx(at sim.Time, frame *framepool.Buf) {
	if s.batch == nil {
		s.ifc.Send(frame)
		return
	}
	for {
		s.txScratch = append(s.txScratch, TimedFrame{At: at, Frame: frame}) //kite:alloc-ok scratch grows to the burst high-water mark, then recycles
		if s.txq.Len() == 0 {
			break
		}
		at, frame = s.txq.Pop()
	}
	s.batch.SendBatch(s.txScratch)
	for i := range s.txScratch {
		s.txScratch[i] = TimedFrame{} // drop frame refs from spare slots
	}
	s.txScratch = s.txScratch[:0]
}

// sendIP routes one IP datagram, the L4 header hdr followed by payload: it
// cuts the datagram into fragments, ARP-resolves, and transmits. Each byte
// is copied once, into its fragment's pooled buffer, before sendIP returns.
func (s *Stack) sendIP(proto uint8, dst netpkt.IP, hdr, payload []byte) {
	s.ipID++
	// Field by field: a composite literal is built in a temporary and
	// copied out with wide loads that stall on its narrow stores.
	var h netpkt.IPv4Header
	h.ID, h.TTL, h.Proto, h.Src, h.Dst = s.ipID, 64, proto, s.ip, dst
	// Fragment offsets are in 8-byte units per RFC 791, so every fragment
	// but the last carries a multiple of 8 bytes. A datagram that fits the
	// MTU is one fragment at offset 0 with no more to follow.
	maxData := (netpkt.MTU - netpkt.IPHeaderLen) &^ 7
	n := len(hdr) + len(payload)
	for off := 0; off < n; off += maxData {
		s.sendFragment(&h, dst, hdr, payload, off, min(off+maxData, n))
	}
}

// sendFragment builds bytes [off, end) of the datagram hdr+payload as one IP
// packet in a pooled buffer: the bytes copied from the two pieces, then the
// IP header prepended into headroom.
func (s *Stack) sendFragment(h *netpkt.IPv4Header, dst netpkt.IP, hdr, payload []byte, off, end int) {
	h.Flags = 0
	if end < len(hdr)+len(payload) {
		h.Flags = netpkt.FlagMoreFragments
	}
	h.FragOff = uint16(off / 8)
	b := s.pool.GetLen(end - off)
	w := b.Extend(end - off)
	if off < len(hdr) {
		w = w[copy(w, hdr[off:]):]
	}
	copy(w, payload[max(off-len(hdr), 0):])
	h.HeaderInto(b.Prepend(netpkt.IPHeaderLen), end-off)
	s.sendIPBuf(dst, b)
}

// sendIPBuf resolves the next hop, prepends the Ethernet header, and queues
// the frame. It consumes the buffer reference: unresolved destinations park
// it on the ARP pending queue.
func (s *Stack) sendIPBuf(dst netpkt.IP, pkt *framepool.Buf) {
	var dmac netpkt.MAC
	switch {
	case dst == netpkt.BroadcastIP:
		dmac = netpkt.Broadcast
	case s.lastOK && dst == s.lastIP:
		dmac = s.lastMAC
	default:
		mac, ok := s.arp[dst]
		if !ok {
			s.arpPending = append(s.arpPending, parked{dst, pkt})
			s.sendARPRequest(dst)
			return
		}
		dmac = mac
		s.lastIP, s.lastMAC, s.lastOK = dst, mac, true
	}
	netpkt.EthHeaderInto(pkt.Prepend(netpkt.EthHeaderLen), dmac, s.ifc.MAC(), netpkt.EtherTypeIPv4)
	s.stats.TxPackets++
	s.stats.TxBytes += uint64(pkt.Len())
	s.queueTx(s.dataCost(pkt.Len()), pkt)
}

func (s *Stack) sendARPRequest(target netpkt.IP) {
	s.stats.ARPRequests++
	a := netpkt.ARP{Op: netpkt.ARPRequest, SenderMAC: s.ifc.MAC(), SenderIP: s.ip, TargetIP: target}
	b := s.pool.GetLen(netpkt.ARPLen)
	a.MarshalInto(b.Extend(netpkt.ARPLen))
	netpkt.EthHeaderInto(b.Prepend(netpkt.EthHeaderLen), netpkt.Broadcast, s.ifc.MAC(), netpkt.EtherTypeARP)
	s.queueTx(s.costs.PerPacket, b)
}

// rxFrame is the device ingress upcall; the stack owns the delivered
// reference and releases it after protocol processing.
func (s *Stack) rxFrame(frame *framepool.Buf) {
	s.stats.RxPackets++
	s.stats.RxBytes += uint64(frame.Len())
	s.rxq.Push(s.cpus.Charge(s.dataCost(frame.Len())), frame)
}

// recvRx runs protocol processing on one frame whose Rx charge completed.
func (s *Stack) recvRx(_ sim.Time, frame *framepool.Buf) {
	s.handleFrame(frame.Bytes())
	frame.Release()
}

func (s *Stack) handleFrame(raw []byte) {
	f, ok := netpkt.DecodeFrame(raw)
	if !ok {
		return
	}
	if f.Dst != s.ifc.MAC() && f.Dst != netpkt.Broadcast {
		return // not for us (promiscuous reception filtered here)
	}
	switch f.EtherType {
	case netpkt.EtherTypeARP:
		s.handleARP(f.Payload)
	case netpkt.EtherTypeIPv4:
		s.handleIPv4(f.Payload)
	}
}

func (s *Stack) handleARP(body []byte) {
	a, ok := netpkt.DecodeARP(body)
	if !ok {
		return
	}
	// Opportunistic learning.
	s.arp[a.SenderIP] = a.SenderMAC
	s.lastOK = false
	s.flushARPPending(a.SenderIP)
	if a.Op == netpkt.ARPRequest && a.TargetIP == s.ip {
		s.stats.ARPReplies++
		reply := netpkt.ARP{
			Op: netpkt.ARPReply, SenderMAC: s.ifc.MAC(), SenderIP: s.ip,
			TargetMAC: a.SenderMAC, TargetIP: a.SenderIP,
		}
		b := s.pool.GetLen(netpkt.ARPLen)
		reply.MarshalInto(b.Extend(netpkt.ARPLen))
		netpkt.EthHeaderInto(b.Prepend(netpkt.EthHeaderLen), a.SenderMAC, s.ifc.MAC(), netpkt.EtherTypeARP)
		s.queueTx(s.costs.PerPacket, b)
	}
}

// parked is an IP packet waiting for its next hop's MAC.
type parked struct {
	ip  netpkt.IP
	pkt *framepool.Buf
}

// flushARPPending sends, in push order, the packets parked for ip, which
// has just resolved: sendIPBuf finds its MAC and parks none of them again.
func (s *Stack) flushARPPending(ip netpkt.IP) {
	rest := s.arpPending[:0]
	for _, p := range s.arpPending {
		if p.ip == ip {
			s.sendIPBuf(ip, p.pkt)
		} else {
			rest = append(rest, p)
		}
	}
	clear(s.arpPending[len(rest):])
	s.arpPending = rest
}

func (s *Stack) handleIPv4(body []byte) {
	var h netpkt.IPv4Header
	payload, ok := h.Decode(body)
	if !ok {
		return
	}
	if h.Dst != s.ip && h.Dst != netpkt.BroadcastIP {
		return
	}
	full, done := s.reasm.Push(&h, payload)
	if !done {
		return
	}
	switch h.Proto {
	case netpkt.ProtoICMP:
		s.handleICMP(&h, full)
	case netpkt.ProtoUDP:
		s.handleUDP(&h, full)
	case netpkt.ProtoTCP:
		s.handleTCP(&h, full)
	}
}

func (s *Stack) handleICMP(h *netpkt.IPv4Header, body []byte) {
	e, payload, ok := netpkt.DecodeICMPEcho(body)
	if !ok {
		return
	}
	switch e.Type {
	case netpkt.ICMPEchoRequest:
		reply := netpkt.ICMPEcho{Type: netpkt.ICMPEchoReply, ID: e.ID, Seq: e.Seq}
		var hdr [netpkt.ICMPHeaderLen]byte
		reply.HeaderInto(hdr[:], payload)
		s.sendIP(netpkt.ProtoICMP, h.Src, hdr[:], payload)
	case netpkt.ICMPEchoReply:
		if w, ok := s.pingWait[e.ID]; ok {
			delete(s.pingWait, e.ID)
			w.cb(s.eng.Now() - w.sentAt)
		}
	}
}

// echoZeros is the all-zero payload of every echo request, as long as the
// largest one an IPv4 datagram carries.
var echoZeros [0xffff - netpkt.IPHeaderLen - netpkt.ICMPHeaderLen]byte

// Ping sends an ICMP echo request with an all-zero payload of the given
// size and invokes cb with the round-trip time when the reply arrives.
func (s *Stack) Ping(dst netpkt.IP, payloadSize int, cb func(rtt sim.Time)) {
	s.nextPing++
	id := s.nextPing
	s.pingWait[id] = pingWaiter{sentAt: s.eng.Now(), cb: cb}
	e := netpkt.ICMPEcho{Type: netpkt.ICMPEchoRequest, ID: id, Seq: 1}
	s.cpus.Charge(s.costs.Syscall)
	var hdr [netpkt.ICMPHeaderLen]byte
	payload := echoZeros[:payloadSize]
	e.HeaderInto(hdr[:], payload)
	s.sendIP(netpkt.ProtoICMP, dst, hdr[:], payload)
}

func (s *Stack) handleUDP(h *netpkt.IPv4Header, body []byte) {
	u, payload, ok := netpkt.DecodeUDP(body)
	if !ok {
		return
	}
	fn := s.udpBinds[u.DstPort]
	if fn == nil {
		s.stats.RxDropNoHandler++
		return
	}
	// Hand the payload across the socket boundary.
	s.cpus.Charge(s.costs.Syscall)
	fn(UDPPacket{Src: h.Src, SrcPort: u.SrcPort, Dst: h.Dst, Data: payload})
}

// BindUDP installs a datagram handler on a local port.
func (s *Stack) BindUDP(port uint16, fn func(UDPPacket)) error {
	if _, taken := s.udpBinds[port]; taken {
		return fmt.Errorf("netstack: udp port %d already bound on %s", port, s.Name)
	}
	s.udpBinds[port] = fn
	return nil
}

// UnbindUDP releases a port.
func (s *Stack) UnbindUDP(port uint16) { delete(s.udpBinds, port) }

// SendUDP transmits one datagram (fragmenting if needed).
func (s *Stack) SendUDP(dst netpkt.IP, dstPort, srcPort uint16, payload []byte) {
	s.cpus.Charge(s.costs.Syscall)
	u := netpkt.UDPHeader{SrcPort: srcPort, DstPort: dstPort}
	var hdr [netpkt.UDPHeaderLen]byte
	u.HeaderInto(hdr[:], len(payload))
	s.sendIP(netpkt.ProtoUDP, dst, hdr[:], payload)
}

// EphemeralPort returns a fresh local port.
func (s *Stack) EphemeralPort() uint16 {
	s.nextPort++
	if s.nextPort < 32768 {
		s.nextPort = 32768
	}
	return s.nextPort
}
