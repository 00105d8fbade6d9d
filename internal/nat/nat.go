// Package nat implements network address translation for the network
// driver domain — the alternative to bridging that §3.1 lists among the
// techniques driver domains need ("bridging, routing, and network address
// translation (NAT)"), ported in spirit from NetBSD's npf/ipnat the way
// Kite ports ifconfig/brconfig.
//
// The translator sits between the physical interface (outside) and the
// guest-facing VIFs (inside): outbound flows get their source rewritten to
// the gateway address with an allocated port; inbound packets are matched
// against the flow table (plus static port forwards) and rewritten back.
// TCP, UDP, and ICMP echo are supported — enough for every workload in the
// evaluation.
package nat

import (
	"encoding/binary"
	"fmt"

	"kite/internal/flowtab"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

const (
	// portBase is the first dynamic external port; everything below is
	// reserved for static forwards and well-known services.
	portBase = 20000
	// portSpan is the size of the dynamic port space — the hard capacity
	// of the translator (per L4 protocol space merged).
	portSpan = 1<<16 - portBase
)

// flowKey keys the flow table.
type flowKey struct {
	proto   uint8
	guestIP netpkt.IP
	guestPt uint16 // ICMP: echo ID
}

// binding is a flow's translation: its external port and whether that port
// was dynamically allocated (vs a static forward's).
type binding struct {
	extPort uint16
	dyn     bool
}

// flow is one translation record; Seen is its last use.
type flow = flowtab.Entry[flowKey, binding]

// natSeed keys the flow table's Toeplitz tables (fixed: deterministic
// spreading, independent of the rig RSS seed).
const natSeed = 0x0A10_5EED_0000_0002

// Stats counts translator activity.
type Stats struct {
	Outbound      uint64
	Inbound       uint64
	Dropped       uint64 // no matching flow or forward
	FlowsAlloc    uint64
	FlowsExpired  uint64
	PortExhausted uint64 // outbound drops because the dynamic port space was full
}

// Translator is one NAT instance owned by the network driver domain.
type Translator struct {
	eng  *sim.Engine
	cpus *sim.CPUPool

	// Gateway is the external address owned by the driver domain.
	Gateway netpkt.IP
	// PerPacketCost models the translation work.
	PerPacketCost sim.Time

	flows *flowtab.Table[flowKey, binding]
	// reverse maps an external port straight to its flow record: a flat
	// array of the table's stable record references — O(1) inbound match
	// with no second hash table to keep consistent.
	reverse  [1 << 16]flowtab.Ref
	forwards []forwardEnt // sorted by extPort; control-plane sized
	nextPort uint16
	dynPorts int // dynamic ports currently allocated

	stats Stats
}

// forwardEnt is one static rdr rule.
type forwardEnt struct {
	extPort uint16
	ip      netpkt.IP
	port    uint16
}

// New creates a translator for the given gateway address.
func New(eng *sim.Engine, cpus *sim.CPUPool, gateway netpkt.IP) *Translator {
	t := &Translator{
		eng: eng, cpus: cpus, Gateway: gateway,
		PerPacketCost: 350 * sim.Nanosecond,
		nextPort:      portBase,
		flows:         flowtab.New[flowKey, binding](natSeed),
	}
	return t
}

// Stats returns a snapshot of the counters.
func (t *Translator) Stats() Stats { return t.stats }

// Flows returns the number of active translations.
func (t *Translator) Flows() int { return t.flows.Len() }

// AddForward installs a static inbound mapping (gateway:extPort ->
// guest:guestPort), the rdr rule servers behind NAT need.
func (t *Translator) AddForward(extPort uint16, guest netpkt.IP, guestPort uint16) error {
	i := t.forwardIdx(extPort)
	if i < len(t.forwards) && t.forwards[i].extPort == extPort {
		return fmt.Errorf("nat: external port %d already forwarded", extPort)
	}
	t.forwards = append(t.forwards, forwardEnt{})
	copy(t.forwards[i+1:], t.forwards[i:])
	t.forwards[i] = forwardEnt{extPort: extPort, ip: guest, port: guestPort}
	return nil
}

// forwardIdx returns the insertion/lookup position of extPort in the
// sorted forwards slice.
func (t *Translator) forwardIdx(extPort uint16) int {
	lo, hi := 0, len(t.forwards)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.forwards[mid].extPort < extPort {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookupForward resolves a static rule by external port.
func (t *Translator) lookupForward(extPort uint16) (forwardEnt, bool) {
	i := t.forwardIdx(extPort)
	if i < len(t.forwards) && t.forwards[i].extPort == extPort {
		return t.forwards[i], true
	}
	return forwardEnt{}, false
}

// allocPort claims a free dynamic external port. Unlike the unbounded
// next-fit loop it replaces, exhaustion is detectable: when every dynamic
// port is taken the scan terminates and the packet is dropped (with
// PortExhausted counted) instead of spinning forever.
func (t *Translator) allocPort() (uint16, bool) {
	if t.dynPorts >= portSpan {
		return 0, false
	}
	for i := 0; i < portSpan; i++ {
		t.nextPort++
		if t.nextPort < portBase {
			t.nextPort = portBase
		}
		if t.reverse[t.nextPort] == 0 {
			if _, fwd := t.lookupForward(t.nextPort); !fwd {
				return t.nextPort, true
			}
		}
	}
	return 0, false
}

// flowFor finds or creates the translation for an outbound packet. A
// guest endpoint that is the target of a static forward keeps the
// forward's external port, so replies of redirected connections translate
// back symmetrically. Returns nil when the dynamic port space is
// exhausted even after idle flows are reclaimed — the caller drops the
// packet.
//
//kite:hotpath
func (t *Translator) flowFor(proto uint8, guest netpkt.IP, guestPort uint16) *flow {
	key := flowKey{proto: proto, guestIP: guest, guestPt: guestPort}
	// Pad the flow key into the Toeplitz window.
	var in [12]byte
	copy(in[0:4], guest[:])
	in[4] = proto
	binary.BigEndian.PutUint16(in[8:10], guestPort)
	h := t.flows.Hash(&in)
	if f := t.flows.Lookup(h, key); f != nil {
		f.Seen = t.eng.Now()
		return f
	}
	ext := uint16(0)
	for _, fwd := range t.forwards { // sorted: lowest matching rule wins, deterministically
		if fwd.ip == guest && fwd.port == guestPort {
			ext = fwd.extPort
			break
		}
	}
	dyn := false
	if ext == 0 {
		var ok bool
		ext, ok = t.allocPort()
		if !ok {
			t.Expire(flowMaxIdle)
			ext, ok = t.allocPort()
		}
		if !ok {
			t.stats.PortExhausted++
			return nil
		}
		t.dynPorts++
		dyn = true
	}
	f, ref := t.flows.Insert(h, key, t.eng.Now())
	f.Val = binding{extPort: ext, dyn: dyn}
	t.reverse[ext] = ref
	t.stats.FlowsAlloc++
	return f
}

// RewriteOutbound translates a guest-originated IPv4 packet (raw, starting
// at the IP header) in place so it appears to come from the gateway.
// Nothing is allocated: L4 ports (or the echo ID) and the IP addresses are
// rewritten inside pkt and checksums are recomputed. Reports whether the
// packet translated (false means drop).
func (t *Translator) RewriteOutbound(pkt []byte) bool {
	t.cpus.Charge(t.PerPacketCost)
	var h netpkt.IPv4Header
	payload, ok := h.Decode(pkt)
	if !ok {
		t.stats.Dropped++
		return false
	}
	switch h.Proto {
	case netpkt.ProtoTCP, netpkt.ProtoUDP:
		hdrLen := netpkt.TCPHeaderLen
		if h.Proto == netpkt.ProtoUDP {
			hdrLen = netpkt.UDPHeaderLen
		}
		if len(payload) < hdrLen {
			t.stats.Dropped++
			return false
		}
		f := t.flowFor(h.Proto, h.Src, binary.BigEndian.Uint16(payload[0:2]))
		if f == nil {
			t.stats.Dropped++
			return false
		}
		binary.BigEndian.PutUint16(payload[0:2], f.Val.extPort)
	case netpkt.ProtoICMP:
		eh, _, ok := netpkt.DecodeICMPEcho(payload)
		if !ok || eh.Type != netpkt.ICMPEchoRequest {
			t.stats.Dropped++
			return false
		}
		f := t.flowFor(h.Proto, h.Src, eh.ID)
		if f == nil {
			t.stats.Dropped++
			return false
		}
		binary.BigEndian.PutUint16(payload[4:6], f.Val.extPort)
		reICMPChecksum(payload)
	default:
		t.stats.Dropped++
		return false
	}
	rewriteIP(pkt, t.Gateway, h.Dst)
	t.stats.Outbound++
	return true
}

// RewriteInbound translates a packet arriving at the gateway back to the
// owning guest, in place. Returns the guest address and whether a flow or
// forward matched (false means drop — NAT's implicit firewall).
func (t *Translator) RewriteInbound(pkt []byte) (netpkt.IP, bool) {
	t.cpus.Charge(t.PerPacketCost)
	var h netpkt.IPv4Header
	payload, ok := h.Decode(pkt)
	if !ok || h.Dst != t.Gateway {
		t.stats.Dropped++
		return netpkt.IP{}, false
	}
	var dst netpkt.IP
	switch h.Proto {
	case netpkt.ProtoTCP, netpkt.ProtoUDP:
		hdrLen := netpkt.TCPHeaderLen
		if h.Proto == netpkt.ProtoUDP {
			hdrLen = netpkt.UDPHeaderLen
		}
		if len(payload) < hdrLen {
			t.stats.Dropped++
			return netpkt.IP{}, false
		}
		guest, port, ok := t.matchInbound(h.Proto, binary.BigEndian.Uint16(payload[2:4]))
		if !ok {
			t.stats.Dropped++
			return netpkt.IP{}, false
		}
		binary.BigEndian.PutUint16(payload[2:4], port)
		dst = guest
	case netpkt.ProtoICMP:
		eh, _, ok := netpkt.DecodeICMPEcho(payload)
		if !ok || eh.Type != netpkt.ICMPEchoReply {
			t.stats.Dropped++
			return netpkt.IP{}, false
		}
		f := t.flows.Get(t.reverse[eh.ID])
		if f == nil || f.Key.proto != netpkt.ProtoICMP {
			t.stats.Dropped++
			return netpkt.IP{}, false
		}
		binary.BigEndian.PutUint16(payload[4:6], f.Key.guestPt)
		reICMPChecksum(payload)
		dst = f.Key.guestIP
	default:
		t.stats.Dropped++
		return netpkt.IP{}, false
	}
	rewriteIP(pkt, h.Src, dst)
	t.stats.Inbound++
	return dst, true
}

// rewriteIP patches the addresses into an IPv4 header in place, decrements
// the TTL, and recomputes the header checksum.
func rewriteIP(pkt []byte, src, dst netpkt.IP) {
	copy(pkt[12:16], src[:])
	copy(pkt[16:20], dst[:])
	pkt[8]-- // TTL
	pkt[10], pkt[11] = 0, 0
	binary.BigEndian.PutUint16(pkt[10:12], netpkt.Checksum(pkt[:netpkt.IPHeaderLen]))
}

// reICMPChecksum recomputes the checksum of an ICMP message in place.
func reICMPChecksum(msg []byte) {
	msg[2], msg[3] = 0, 0
	binary.BigEndian.PutUint16(msg[2:4], netpkt.Checksum(msg))
}

// matchInbound resolves an inbound destination port via flows then static
// forwards.
//
//kite:hotpath
func (t *Translator) matchInbound(proto uint8, extPort uint16) (netpkt.IP, uint16, bool) {
	if f := t.flows.Get(t.reverse[extPort]); f != nil && f.Key.proto == proto {
		f.Seen = t.eng.Now()
		return f.Key.guestIP, f.Key.guestPt, true
	}
	if fwd, ok := t.lookupForward(extPort); ok {
		return fwd.ip, fwd.port, true
	}
	return netpkt.IP{}, 0, false
}

// release returns a dying flow's external port: the reverse entry clears
// and a dynamic port becomes allocatable again.
func (t *Translator) release(f *flow) {
	t.reverse[f.Val.extPort] = 0
	if f.Val.dyn {
		t.dynPorts--
	}
}

// flowMaxIdle is how long a flow outlives its last packet before a full
// port space may reclaim it: RFC 5382 REQ-5's floor for an established TCP
// mapping, 2 h 4 min, which also clears RFC 4787 REQ-5's two minutes for
// UDP.
const flowMaxIdle = 7440 * sim.Second

// Expire drops flows idle for longer than maxIdle, in the table's slab
// order. flowFor runs it with flowMaxIdle when the dynamic port space is
// full, then retries the allocation once.
//
//kite:coldpath
func (t *Translator) Expire(maxIdle sim.Time) int {
	dropped := t.flows.Expire(t.eng.Now(), maxIdle, t.release)
	t.stats.FlowsExpired += uint64(dropped)
	return dropped
}

// DropGuest removes every flow owned by a guest address — the teardown
// path when a tenant detaches mid-traffic, so a departed guest's
// translations stop pinning external ports immediately instead of waiting
// out the idle timer.
func (t *Translator) DropGuest(guest netpkt.IP) int {
	dropped := 0
	t.flows.Each(func(f *flow) {
		if f.Key.guestIP == guest {
			t.release(f)
			t.flows.Remove(f)
			dropped++
		}
	})
	t.stats.FlowsExpired += uint64(dropped)
	return dropped
}
