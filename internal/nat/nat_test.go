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

func udpPacket(src, dst netpkt.IP, sport, dport uint16, body string) []byte {
	u := netpkt.UDPHeader{SrcPort: sport, DstPort: dport}
	h := netpkt.IPv4Header{ID: 1, TTL: 64, Proto: netpkt.ProtoUDP, Src: src, Dst: dst}
	return h.Marshal(u.Marshal([]byte(body)))
}

func tcpPacket(src, dst netpkt.IP, sport, dport uint16, body string) []byte {
	th := netpkt.TCPHeader{SrcPort: sport, DstPort: dport, Seq: 1, Flags: netpkt.TCPAck}
	h := netpkt.IPv4Header{ID: 2, TTL: 64, Proto: netpkt.ProtoTCP, Src: src, Dst: dst}
	return h.Marshal(th.Marshal([]byte(body)))
}

var (
	guestIP  = netpkt.IPv4(10, 0, 0, 5)
	remoteIP = netpkt.IPv4(198, 51, 100, 9)
)

func TestOutboundRewritesSource(t *testing.T) {
	_, tr := newT()
	out := tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "query"))
	if out == nil {
		t.Fatal("outbound dropped")
	}
	h, payload, err := netpkt.ParseIPv4(out)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != tr.Gateway || h.Dst != remoteIP {
		t.Fatalf("addresses = %v -> %v", h.Src, h.Dst)
	}
	u, body, _ := netpkt.ParseUDP(payload)
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
	out := tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "q"))
	_, p1, _ := netpkt.ParseIPv4(out)
	u1, _, _ := netpkt.ParseUDP(p1)

	// Reply comes back to the gateway at the allocated port.
	reply := udpPacket(remoteIP, tr.Gateway, 53, u1.SrcPort, "answer")
	in, dst := tr.TranslateInbound(reply)
	if in == nil {
		t.Fatal("inbound dropped")
	}
	if dst != guestIP {
		t.Fatalf("inbound delivered to %v", dst)
	}
	h, payload, _ := netpkt.ParseIPv4(in)
	u2, body, _ := netpkt.ParseUDP(payload)
	if h.Dst != guestIP || u2.DstPort != 4444 || string(body) != "answer" {
		t.Fatalf("inbound rewrite wrong: %v:%d %q", h.Dst, u2.DstPort, body)
	}
}

func TestRoundTripTCP(t *testing.T) {
	_, tr := newT()
	out := tr.TranslateOutbound(tcpPacket(guestIP, remoteIP, 50000, 80, "GET"))
	_, p1, _ := netpkt.ParseIPv4(out)
	t1, _, _ := netpkt.ParseTCP(p1)
	reply := tcpPacket(remoteIP, tr.Gateway, 80, t1.SrcPort, "200")
	in, dst := tr.TranslateInbound(reply)
	if in == nil || dst != guestIP {
		t.Fatal("tcp round trip failed")
	}
	_, p2, _ := netpkt.ParseIPv4(in)
	t2, body, _ := netpkt.ParseTCP(p2)
	if t2.DstPort != 50000 || !bytes.Equal(body, []byte("200")) {
		t.Fatal("tcp inbound rewrite wrong")
	}
}

func TestICMPEchoTranslation(t *testing.T) {
	_, tr := newT()
	e := netpkt.ICMPEcho{Type: netpkt.ICMPEchoRequest, ID: 77, Seq: 1}
	h := netpkt.IPv4Header{TTL: 64, Proto: netpkt.ProtoICMP, Src: guestIP, Dst: remoteIP}
	out := tr.TranslateOutbound(h.Marshal(e.Marshal(nil)))
	if out == nil {
		t.Fatal("icmp outbound dropped")
	}
	_, p1, _ := netpkt.ParseIPv4(out)
	e1, _, _ := netpkt.ParseICMPEcho(p1)
	if e1.ID == 77 {
		t.Fatal("echo id not rewritten")
	}
	// Reply with the external ID.
	re := netpkt.ICMPEcho{Type: netpkt.ICMPEchoReply, ID: e1.ID, Seq: 1}
	rh := netpkt.IPv4Header{TTL: 64, Proto: netpkt.ProtoICMP, Src: remoteIP, Dst: tr.Gateway}
	in, dst := tr.TranslateInbound(rh.Marshal(re.Marshal(nil)))
	if in == nil || dst != guestIP {
		t.Fatal("icmp inbound failed")
	}
	_, p2, _ := netpkt.ParseIPv4(in)
	e2, _, _ := netpkt.ParseICMPEcho(p2)
	if e2.ID != 77 {
		t.Fatalf("echo id not restored: %d", e2.ID)
	}
}

func TestFlowReuse(t *testing.T) {
	_, tr := newT()
	tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "a"))
	tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "b"))
	if tr.Flows() != 1 {
		t.Fatalf("flows = %d, want 1 (reused)", tr.Flows())
	}
	tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 4445, 53, "c"))
	if tr.Flows() != 2 {
		t.Fatalf("flows = %d, want 2", tr.Flows())
	}
}

func TestTwoGuestsSamePortDistinctFlows(t *testing.T) {
	_, tr := newT()
	g2 := netpkt.IPv4(10, 0, 0, 6)
	o1 := tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 7000, 53, "1"))
	o2 := tr.TranslateOutbound(udpPacket(g2, remoteIP, 7000, 53, "2"))
	_, p1, _ := netpkt.ParseIPv4(o1)
	_, p2, _ := netpkt.ParseIPv4(o2)
	u1, _, _ := netpkt.ParseUDP(p1)
	u2, _, _ := netpkt.ParseUDP(p2)
	if u1.SrcPort == u2.SrcPort {
		t.Fatal("two guests share an external port")
	}
	// Replies route back to the right guest.
	_, d1 := tr.TranslateInbound(udpPacket(remoteIP, tr.Gateway, 53, u1.SrcPort, "r1"))
	_, d2 := tr.TranslateInbound(udpPacket(remoteIP, tr.Gateway, 53, u2.SrcPort, "r2"))
	if d1 != guestIP || d2 != g2 {
		t.Fatalf("replies misrouted: %v %v", d1, d2)
	}
}

func TestUnsolicitedInboundDropped(t *testing.T) {
	_, tr := newT()
	in, _ := tr.TranslateInbound(udpPacket(remoteIP, tr.Gateway, 53, 30000, "scan"))
	if in != nil {
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
	in, dst := tr.TranslateInbound(tcpPacket(remoteIP, tr.Gateway, 55555, 8080, "GET"))
	if in == nil || dst != guestIP {
		t.Fatal("forwarded packet dropped")
	}
	_, p, _ := netpkt.ParseIPv4(in)
	th, _, _ := netpkt.ParseTCP(p)
	if th.DstPort != 80 {
		t.Fatalf("forward port = %d, want 80", th.DstPort)
	}
}

func TestWrongDestinationDropped(t *testing.T) {
	_, tr := newT()
	in, _ := tr.TranslateInbound(udpPacket(remoteIP, netpkt.IPv4(9, 9, 9, 9), 53, 20001, "x"))
	if in != nil {
		t.Fatal("packet for foreign address translated")
	}
}

func TestExpireDropsIdleFlows(t *testing.T) {
	eng, tr := newT()
	tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 4444, 53, "a"))
	eng.RunUntil(10 * sim.Second)
	tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 5555, 53, "b")) // fresh
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
	tr.TranslateOutbound(udpPacket(guestIP, remoteIP, 1, 53, "x"))
	tr.flows.Each(func(f *flow) {
		if f.Val.extPort == 30000 {
			t.Fatal("flow allocated a forwarded port")
		}
	})
}
