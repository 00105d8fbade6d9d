package core

import (
	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/nat"
	"kite/internal/netpkt"
	"kite/internal/sim"
	"kite/internal/xen"
)

// natRouter is the network application's NAT mode (§3.1 lists NAT next to
// bridging as the ways netbacks link to the physical NIC). Guests live on
// a private segment behind an inside bridge; the router proxy-ARPs for
// every address so guests send all off-segment traffic to it, translates
// with the nat.Translator, and forwards through the physical interface
// under the gateway address.
//
// Frames stay in their pooled buffers across the router: translation
// rewrites headers in place and forwarding re-stamps the Ethernet header
// in the same buffer, so the NAT hop copies no payload bytes.
type natRouter struct {
	dom  *xen.Domain
	tr   *nat.Translator
	pool *framepool.Pool

	mac     netpkt.MAC
	gateway netpkt.IP

	inside   *bridge.Bridge
	nic      bridge.FrameDevice
	nicMAC   netpkt.MAC
	perFrame sim.Time

	// Learned mappings for delivery.
	guestMACs map[netpkt.IP]netpkt.MAC
	// insideNet is the /24 of the private segment, learned from the first
	// inside speaker; the router never proxy-ARPs for on-segment targets.
	insideNet [3]byte
	insideSet bool

	// Outside neighbour cache + ARP-pending queue (pending entries hold one
	// buffer reference each).
	outARP     map[netpkt.IP]netpkt.MAC
	outPending map[netpkt.IP][]*framepool.Buf

	// outq holds routed frames until their per-frame CPU charge completes.
	outq *sim.Line[routed]
}

// routed is one charged frame awaiting forwarding; inward frames go to the
// inside bridge, outward ones to the physical NIC. The line holds one
// buffer reference per entry.
type routed struct {
	frame  *framepool.Buf
	inward bool
}

// newNATRouter builds the router and attaches it to the inside bridge and
// the physical NIC.
func newNATRouter(eng *sim.Engine, dom *xen.Domain, inside *bridge.Bridge,
	nic bridge.FrameDevice, nicMAC netpkt.MAC, gateway netpkt.IP,
	perFrame sim.Time, pool *framepool.Pool) *natRouter {

	if pool == nil {
		pool = framepool.New()
	}
	r := &natRouter{
		dom:        dom,
		tr:         nat.New(eng, dom.CPUs, gateway),
		pool:       pool,
		mac:        netpkt.MAC{0x00, 0x16, 0x3e, 0xaa, 0x00, 0x01},
		gateway:    gateway,
		inside:     inside,
		nic:        nic,
		nicMAC:     nicMAC,
		perFrame:   perFrame,
		guestMACs:  make(map[netpkt.IP]netpkt.MAC),
		outARP:     make(map[netpkt.IP]netpkt.MAC),
		outPending: make(map[netpkt.IP][]*framepool.Buf),
	}
	r.outq = sim.NewLine(eng, r.forward)
	inside.AddPort(r)
	nic.SetRecv(r.fromOutside)
	return r
}

// Translator exposes the NAT state (port forwards, stats).
func (r *natRouter) Translator() *nat.Translator { return r.tr }

// PortName implements bridge.Port.
func (r *natRouter) PortName() string { return "nat0" }

// Deliver implements bridge.Port: a frame from the inside segment reached
// the router (guests address it via proxy ARP, or it was flooded). The
// router consumes the bridge's buffer reference.
func (r *natRouter) Deliver(frame *framepool.Buf) {
	raw := frame.Bytes()
	f, ok := netpkt.DecodeFrame(raw)
	if !ok {
		frame.Release()
		return
	}
	switch f.EtherType {
	case netpkt.EtherTypeARP:
		r.insideARP(&f)
		frame.Release()
	case netpkt.EtherTypeIPv4:
		if f.Dst != r.mac && f.Dst != netpkt.Broadcast {
			frame.Release()
			return
		}
		r.learnGuest(&f)
		frame = r.exclusive(frame)
		if !r.tr.RewriteOutbound(frame.Bytes()[netpkt.EthHeaderLen:]) {
			frame.Release()
			return
		}
		r.route(frame, false)
	default:
		frame.Release()
	}
}

// route queues one translated frame for forwarding when its per-frame CPU
// charge completes.
func (r *natRouter) route(frame *framepool.Buf, inward bool) {
	r.outq.Push(r.dom.CPUs.Charge(r.perFrame), routed{frame: frame, inward: inward})
}

// forward sends one matured frame on its way.
func (r *natRouter) forward(_ sim.Time, d routed) {
	if d.inward {
		r.inside.Input(r, d.frame)
	} else {
		r.sendOutside(d.frame)
	}
}

// exclusive returns a frame safe to rewrite in place: a buffer shared with
// other flood targets is cloned first (copy-on-write; the steady-state
// unicast path stays zero-copy).
func (r *natRouter) exclusive(frame *framepool.Buf) *framepool.Buf {
	if frame.Refs() == 1 {
		return frame
	}
	cp := r.pool.GetLen(frame.Len())
	copy(cp.Extend(frame.Len()), frame.Bytes())
	frame.Release()
	return cp
}

// arpFrame builds a pooled Ethernet+ARP frame.
func (r *natRouter) arpFrame(a netpkt.ARP, dst, src netpkt.MAC) *framepool.Buf {
	b := r.pool.GetLen(netpkt.ARPLen)
	a.MarshalInto(b.Extend(netpkt.ARPLen))
	netpkt.EthHeaderInto(b.Prepend(netpkt.EthHeaderLen), dst, src, netpkt.EtherTypeARP)
	return b
}

// insideARP answers every inside ARP request with the router's MAC (proxy
// ARP) so guests forward off-segment traffic here, and learns sender
// addresses for inbound delivery.
func (r *natRouter) insideARP(f *netpkt.Frame) {
	a, ok := netpkt.DecodeARP(f.Payload)
	if !ok {
		return
	}
	r.guestMACs[a.SenderIP] = a.SenderMAC
	if !r.insideSet {
		r.insideNet = [3]byte{a.SenderIP[0], a.SenderIP[1], a.SenderIP[2]}
		r.insideSet = true
	}
	if a.Op != netpkt.ARPRequest || a.SenderIP == a.TargetIP {
		return
	}
	// On-segment targets answer for themselves; proxying would hijack
	// guest-to-guest traffic.
	if r.insideSet && [3]byte{a.TargetIP[0], a.TargetIP[1], a.TargetIP[2]} == r.insideNet {
		return
	}
	reply := netpkt.ARP{
		Op: netpkt.ARPReply, SenderMAC: r.mac, SenderIP: a.TargetIP,
		TargetMAC: a.SenderMAC, TargetIP: a.SenderIP,
	}
	r.route(r.arpFrame(reply, a.SenderMAC, r.mac), true)
}

func (r *natRouter) learnGuest(f *netpkt.Frame) {
	var h netpkt.IPv4Header
	if _, ok := h.Decode(f.Payload); ok {
		r.guestMACs[h.Src] = f.Src
	}
}

// sendOutside resolves the next hop on the physical segment and transmits,
// re-stamping the frame's Ethernet header in place. Consumes the buffer
// reference.
func (r *natRouter) sendOutside(frame *framepool.Buf) {
	raw := frame.Bytes()
	var h netpkt.IPv4Header
	if _, ok := h.Decode(raw[netpkt.EthHeaderLen:]); !ok {
		frame.Release()
		return
	}
	if mac, ok := r.outARP[h.Dst]; ok {
		netpkt.EthHeaderInto(raw[:netpkt.EthHeaderLen], mac, r.nicMAC, netpkt.EtherTypeIPv4)
		r.nic.Send(frame)
		return
	}
	r.outPending[h.Dst] = append(r.outPending[h.Dst], frame)
	req := netpkt.ARP{Op: netpkt.ARPRequest, SenderMAC: r.nicMAC, SenderIP: r.gateway, TargetIP: h.Dst}
	r.nic.Send(r.arpFrame(req, netpkt.Broadcast, r.nicMAC))
}

// fromOutside handles frames arriving on the physical interface, consuming
// the device's buffer reference.
func (r *natRouter) fromOutside(frame *framepool.Buf) {
	raw := frame.Bytes()
	f, ok := netpkt.DecodeFrame(raw)
	if !ok {
		frame.Release()
		return
	}
	switch f.EtherType {
	case netpkt.EtherTypeARP:
		r.outsideARP(&f)
		frame.Release()
	case netpkt.EtherTypeIPv4:
		if f.Dst != r.nicMAC && f.Dst != netpkt.Broadcast {
			frame.Release()
			return
		}
		frame = r.exclusive(frame)
		raw = frame.Bytes()
		guest, ok := r.tr.RewriteInbound(raw[netpkt.EthHeaderLen:])
		if !ok {
			frame.Release()
			return
		}
		mac, ok := r.guestMACs[guest]
		if !ok {
			frame.Release()
			return // guest never spoke; nothing to deliver to
		}
		netpkt.EthHeaderInto(raw[:netpkt.EthHeaderLen], mac, r.mac, netpkt.EtherTypeIPv4)
		r.route(frame, true)
	default:
		frame.Release()
	}
}

// outsideARP answers requests for the gateway and learns outside peers.
func (r *natRouter) outsideARP(f *netpkt.Frame) {
	a, ok := netpkt.DecodeARP(f.Payload)
	if !ok {
		return
	}
	r.outARP[a.SenderIP] = a.SenderMAC
	// Flush packets that waited for this resolution.
	if queued := r.outPending[a.SenderIP]; len(queued) > 0 {
		delete(r.outPending, a.SenderIP)
		for _, pkt := range queued {
			r.sendOutside(pkt)
		}
	}
	if a.Op == netpkt.ARPRequest && a.TargetIP == r.gateway {
		reply := netpkt.ARP{
			Op: netpkt.ARPReply, SenderMAC: r.nicMAC, SenderIP: r.gateway,
			TargetMAC: a.SenderMAC, TargetIP: a.SenderIP,
		}
		r.nic.Send(r.arpFrame(reply, a.SenderMAC, r.nicMAC))
	}
}
