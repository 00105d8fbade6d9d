package netstack

import (
	"testing"

	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

// captureIf is a NetIf that records the length and class capacity of each
// frame it is sent, then drops it.
type captureIf struct {
	mac  netpkt.MAC
	recv func(*framepool.Buf)
	sent []sentFrame
}

type sentFrame struct{ len, cap int }

func (c *captureIf) MAC() netpkt.MAC                       { return c.mac }
func (c *captureIf) SetRecv(fn func(frame *framepool.Buf)) { c.recv = fn }
func (c *captureIf) Send(f *framepool.Buf) bool {
	c.sent = append(c.sent, sentFrame{f.Len(), f.Cap()})
	f.Release()
	return true
}

// arpFrame builds an Ethernet+ARP frame in pool.
func arpFrame(pool *framepool.Pool, a netpkt.ARP, dst netpkt.MAC) *framepool.Buf {
	b := pool.GetLen(netpkt.ARPLen)
	a.MarshalInto(b.Extend(netpkt.ARPLen))
	netpkt.EthHeaderInto(b.Prepend(netpkt.EthHeaderLen), dst, a.SenderMAC, netpkt.EtherTypeARP)
	return b
}

// The stack takes each frame it builds from the smallest class that holds
// it: an ARP request or reply and a 64 B or 128 B datagram from the small
// class, a 1,400 B datagram from the MTU class.
func TestFramesComeFromTheirClass(t *testing.T) {
	eng := sim.NewEngine()
	pool := framepool.New()
	dev := &captureIf{mac: netpkt.MAC{2, 0, 0, 0, 0, 1}}
	s := New(eng, Config{Name: "guest", CPUs: sim.NewCPUPool(eng, "guest", 1), Iface: dev,
		IP: netpkt.IPv4(10, 0, 0, 1), Costs: LinuxGuestCosts(), Seed: 1, Pool: pool})
	peerMAC, peerIP := netpkt.MAC{2, 0, 0, 0, 0, 2}, netpkt.IPv4(10, 0, 0, 2)
	sendOne := func(want int, send func()) {
		t.Helper()
		dev.sent = dev.sent[:0]
		send()
		eng.Run()
		if len(dev.sent) != 1 || dev.sent[0].cap != want {
			t.Fatalf("sent %+v, want one frame of capacity %d", dev.sent, want)
		}
	}

	// The first datagram parks behind an ARP request; the peer's reply
	// releases it.
	sendOne(framepool.SmallFrame, func() { s.SendUDP(peerIP, 7, 7, make([]byte, 64)) })
	sendOne(framepool.SmallFrame, func() {
		dev.recv(arpFrame(pool, netpkt.ARP{Op: netpkt.ARPReply, SenderMAC: peerMAC, SenderIP: peerIP,
			TargetMAC: dev.mac, TargetIP: s.IP()}, dev.mac))
	})
	if dev.sent[0].len != netpkt.EthHeaderLen+netpkt.IPHeaderLen+8+64 {
		t.Fatalf("the released datagram is %d B", dev.sent[0].len)
	}
	sendOne(framepool.SmallFrame, func() { s.SendUDP(peerIP, 7, 7, make([]byte, 128)) })
	sendOne(framepool.MTUFrame, func() { s.SendUDP(peerIP, 7, 7, make([]byte, 1400)) })
	// The stack answers a request for its own address.
	sendOne(framepool.SmallFrame, func() {
		dev.recv(arpFrame(pool, netpkt.ARP{Op: netpkt.ARPRequest, SenderMAC: peerMAC, SenderIP: peerIP,
			TargetIP: s.IP()}, netpkt.Broadcast))
	})
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers outstanding", n)
	}
}

// dstIf is a NetIf that records the destination MAC of each frame it is
// sent, then drops it.
type dstIf struct {
	mac  netpkt.MAC
	recv func(*framepool.Buf)
	dst  []netpkt.MAC
}

func (d *dstIf) MAC() netpkt.MAC                       { return d.mac }
func (d *dstIf) SetRecv(fn func(frame *framepool.Buf)) { d.recv = fn }
func (d *dstIf) Send(f *framepool.Buf) bool {
	d.dst = append(d.dst, netpkt.MAC(f.Bytes()[:6]))
	f.Release()
	return true
}

// TestNextHopFollowsARP: the last resolved next hop is a cache over the
// ARP table, never a second truth. A send after the peer's MAC changes goes
// to the new MAC, and a send after carrier loss asks again.
func TestNextHopFollowsARP(t *testing.T) {
	eng := sim.NewEngine()
	pool := framepool.New()
	dev := &dstIf{mac: netpkt.MAC{2, 0, 0, 0, 0, 1}}
	s := New(eng, Config{Name: "guest", CPUs: sim.NewCPUPool(eng, "guest", 1), Iface: dev,
		IP: netpkt.IPv4(10, 0, 0, 1), Costs: LinuxGuestCosts(), Seed: 1, Pool: pool})
	peerIP := netpkt.IPv4(10, 0, 0, 2)
	old, moved := netpkt.MAC{2, 0, 0, 0, 0, 2}, netpkt.MAC{2, 0, 0, 0, 0, 3}
	announce := func(mac netpkt.MAC) {
		dev.recv(arpFrame(pool, netpkt.ARP{Op: netpkt.ARPReply, SenderMAC: mac, SenderIP: peerIP,
			TargetMAC: dev.mac, TargetIP: s.IP()}, dev.mac))
	}
	step := func(want netpkt.MAC, do func()) {
		t.Helper()
		dev.dst = dev.dst[:0]
		do()
		eng.Run()
		if len(dev.dst) != 1 || dev.dst[0] != want {
			t.Fatalf("sent to %v, want one frame to %v", dev.dst, want)
		}
	}
	send := func() { s.SendUDP(peerIP, 7, 7, make([]byte, 64)) }

	step(netpkt.Broadcast, send) // parks behind an ARP request
	step(old, func() { announce(old) })
	step(old, send)
	announce(moved)
	eng.Run()
	step(moved, send)
	s.linkDown()
	step(netpkt.Broadcast, send)
	step(moved, func() { announce(moved) })
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers outstanding", n)
	}
}
