package nat

import (
	"bytes"
	"testing"

	"kite/internal/netpkt"
	"kite/internal/sim"
)

func newT() (*sim.Engine, *Translator) {
	eng := sim.NewEngine()
	cpus := sim.NewCPUPool(eng, "dd", 1)
	return eng, New(eng, cpus, netpkt.IPv4(192, 0, 2, 1))
}

// ipPacket encodes h, an L4 header of hdrLen bytes written by l4, and body
// into one buffer, as the netstack fills a frame.
func ipPacket(h netpkt.IPv4Header, hdrLen int, l4 func([]byte), body []byte) []byte {
	b := make([]byte, netpkt.IPHeaderLen+hdrLen+len(body))
	copy(b[netpkt.IPHeaderLen+hdrLen:], body)
	l4(b[netpkt.IPHeaderLen:])
	h.HeaderInto(b, hdrLen+len(body))
	return b
}

func udpPacket(src, dst netpkt.IP, sport, dport uint16, body string) []byte {
	u := netpkt.UDPHeader{SrcPort: sport, DstPort: dport}
	h := netpkt.IPv4Header{ID: 1, TTL: 64, Proto: netpkt.ProtoUDP, Src: src, Dst: dst}
	return ipPacket(h, netpkt.UDPHeaderLen, func(b []byte) { u.HeaderInto(b, len(body)) }, []byte(body))
}

func tcpPacket(src, dst netpkt.IP, sport, dport uint16, body string) []byte {
	th := netpkt.TCPHeader{SrcPort: sport, DstPort: dport, Seq: 1, Flags: netpkt.TCPAck}
	h := netpkt.IPv4Header{ID: 2, TTL: 64, Proto: netpkt.ProtoTCP, Src: src, Dst: dst}
	return ipPacket(h, netpkt.TCPHeaderLen, th.HeaderInto, []byte(body))
}

func echoPacket(src, dst netpkt.IP, e netpkt.ICMPEcho) []byte {
	h := netpkt.IPv4Header{TTL: 64, Proto: netpkt.ProtoICMP, Src: src, Dst: dst}
	return ipPacket(h, netpkt.ICMPHeaderLen, func(b []byte) { e.HeaderInto(b, nil) }, nil)
}

// decodeUDP splits a translated packet into its IPv4 and UDP headers.
func decodeUDP(t *testing.T, pkt []byte) (netpkt.IPv4Header, netpkt.UDPHeader, []byte) {
	t.Helper()
	var h netpkt.IPv4Header
	payload, ok := h.Decode(pkt)
	u, body, ok2 := netpkt.DecodeUDP(payload)
	if !ok || !ok2 {
		t.Fatal("translated packet does not decode")
	}
	return h, u, body
}

func decodeTCP(t *testing.T, pkt []byte) netpkt.TCPHeader {
	t.Helper()
	payload, ok := new(netpkt.IPv4Header).Decode(pkt)
	th, _, ok2 := netpkt.DecodeTCP(payload)
	if !ok || !ok2 {
		t.Fatal("translated packet does not decode")
	}
	return th
}

func decodeEcho(t *testing.T, pkt []byte) netpkt.ICMPEcho {
	t.Helper()
	payload, ok := new(netpkt.IPv4Header).Decode(pkt)
	e, _, ok2 := netpkt.DecodeICMPEcho(payload)
	if !ok || !ok2 {
		t.Fatal("translated packet does not decode")
	}
	return e
}

var (
	guestIP  = netpkt.IPv4(10, 0, 0, 5)
	remoteIP = netpkt.IPv4(198, 51, 100, 9)
)

func TestOutboundRewritesSource(t *testing.T) {
	_, tr := newT()
	pkt := udpPacket(guestIP, remoteIP, 4444, 53, "query")
	if !tr.RewriteOutbound(pkt) {
		t.Fatal("outbound dropped")
	}
	h, u, body := decodeUDP(t, pkt)
	if h.Src != tr.Gateway || h.Dst != remoteIP {
		t.Fatalf("addresses = %v -> %v", h.Src, h.Dst)
	}
	if u.SrcPort == 4444 {
		t.Fatal("source port not rewritten")
	}
	if u.DstPort != 53 || string(body) != "query" {
		t.Fatal("destination/body corrupted")
	}
	if h.TTL != 63 {
		t.Fatalf("ttl = %d, want decremented", h.TTL)
	}
}

func TestRoundTripUDP(t *testing.T) {
	_, tr := newT()
	out := udpPacket(guestIP, remoteIP, 4444, 53, "q")
	tr.RewriteOutbound(out)
	_, u1, _ := decodeUDP(t, out)

	// Reply comes back to the gateway at the allocated port.
	in := udpPacket(remoteIP, tr.Gateway, 53, u1.SrcPort, "answer")
	dst, ok := tr.RewriteInbound(in)
	if !ok {
		t.Fatal("inbound dropped")
	}
	if dst != guestIP {
		t.Fatalf("inbound delivered to %v", dst)
	}
	h, u2, body := decodeUDP(t, in)
	if h.Dst != guestIP || u2.DstPort != 4444 || string(body) != "answer" {
		t.Fatalf("inbound rewrite wrong: %v:%d %q", h.Dst, u2.DstPort, body)
	}
}

func TestRoundTripTCP(t *testing.T) {
	_, tr := newT()
	out := tcpPacket(guestIP, remoteIP, 50000, 80, "GET")
	tr.RewriteOutbound(out)
	in := tcpPacket(remoteIP, tr.Gateway, 80, decodeTCP(t, out).SrcPort, "200")
	if dst, ok := tr.RewriteInbound(in); !ok || dst != guestIP {
		t.Fatal("tcp round trip failed")
	}
	p2, _ := new(netpkt.IPv4Header).Decode(in)
	t2, body, _ := netpkt.DecodeTCP(p2)
	if t2.DstPort != 50000 || !bytes.Equal(body, []byte("200")) {
		t.Fatal("tcp inbound rewrite wrong")
	}
}

func TestICMPEchoTranslation(t *testing.T) {
	_, tr := newT()
	out := echoPacket(guestIP, remoteIP, netpkt.ICMPEcho{Type: netpkt.ICMPEchoRequest, ID: 77, Seq: 1})
	if !tr.RewriteOutbound(out) {
		t.Fatal("icmp outbound dropped")
	}
	e1 := decodeEcho(t, out)
	if e1.ID == 77 {
		t.Fatal("echo id not rewritten")
	}
	// Reply with the external ID.
	in := echoPacket(remoteIP, tr.Gateway, netpkt.ICMPEcho{Type: netpkt.ICMPEchoReply, ID: e1.ID, Seq: 1})
	if dst, ok := tr.RewriteInbound(in); !ok || dst != guestIP {
		t.Fatal("icmp inbound failed")
	}
	if e2 := decodeEcho(t, in); e2.ID != 77 {
		t.Fatalf("echo id not restored: %d", e2.ID)
	}
}

func TestFlowReuse(t *testing.T) {
	_, tr := newT()
	tr.RewriteOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "a"))
	tr.RewriteOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "b"))
	if tr.Flows() != 1 {
		t.Fatalf("flows = %d, want 1 (reused)", tr.Flows())
	}
	tr.RewriteOutbound(udpPacket(guestIP, remoteIP, 4445, 53, "c"))
	if tr.Flows() != 2 {
		t.Fatalf("flows = %d, want 2", tr.Flows())
	}
}

func TestTwoGuestsSamePortDistinctFlows(t *testing.T) {
	_, tr := newT()
	g2 := netpkt.IPv4(10, 0, 0, 6)
	o1 := udpPacket(guestIP, remoteIP, 7000, 53, "1")
	o2 := udpPacket(g2, remoteIP, 7000, 53, "2")
	tr.RewriteOutbound(o1)
	tr.RewriteOutbound(o2)
	_, u1, _ := decodeUDP(t, o1)
	_, u2, _ := decodeUDP(t, o2)
	if u1.SrcPort == u2.SrcPort {
		t.Fatal("two guests share an external port")
	}
	// Replies route back to the right guest.
	d1, _ := tr.RewriteInbound(udpPacket(remoteIP, tr.Gateway, 53, u1.SrcPort, "r1"))
	d2, _ := tr.RewriteInbound(udpPacket(remoteIP, tr.Gateway, 53, u2.SrcPort, "r2"))
	if d1 != guestIP || d2 != g2 {
		t.Fatalf("replies misrouted: %v %v", d1, d2)
	}
}

func TestUnsolicitedInboundDropped(t *testing.T) {
	_, tr := newT()
	if _, ok := tr.RewriteInbound(udpPacket(remoteIP, tr.Gateway, 53, 30000, "scan")); ok {
		t.Fatal("unsolicited inbound passed the NAT")
	}
	if tr.Stats().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestStaticForward(t *testing.T) {
	_, tr := newT()
	if err := tr.AddForward(8080, guestIP, 80); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddForward(8080, guestIP, 81); err == nil {
		t.Fatal("duplicate forward accepted")
	}
	in := tcpPacket(remoteIP, tr.Gateway, 55555, 8080, "GET")
	if dst, ok := tr.RewriteInbound(in); !ok || dst != guestIP {
		t.Fatal("forwarded packet dropped")
	}
	if th := decodeTCP(t, in); th.DstPort != 80 {
		t.Fatalf("forward port = %d, want 80", th.DstPort)
	}
}

func TestWrongDestinationDropped(t *testing.T) {
	_, tr := newT()
	if _, ok := tr.RewriteInbound(udpPacket(remoteIP, netpkt.IPv4(9, 9, 9, 9), 53, 20001, "x")); ok {
		t.Fatal("packet for foreign address translated")
	}
}

func TestExpireDropsIdleFlows(t *testing.T) {
	eng, tr := newT()
	tr.RewriteOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "a"))
	eng.RunUntil(10 * sim.Second)
	tr.RewriteOutbound(udpPacket(guestIP, remoteIP, 5555, 53, "b")) // fresh
	if n := tr.Expire(5 * sim.Second); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if tr.Flows() != 1 {
		t.Fatalf("flows after expire = %d", tr.Flows())
	}
}

func TestPortAllocationSkipsForwards(t *testing.T) {
	_, tr := newT()
	tr.nextPort = 29999
	tr.AddForward(30000, guestIP, 80)
	tr.RewriteOutbound(udpPacket(guestIP, remoteIP, 1, 53, "x"))
	tr.flows.Each(func(f *flow) {
		if f.Val.extPort == 30000 {
			t.Fatal("flow allocated a forwarded port")
		}
	})
}
