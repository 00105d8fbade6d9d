package netstack

import (
	"bytes"
	"testing"

	"kite/internal/netpkt"
	"kite/internal/nic"
	"kite/internal/sim"
)

// twoHosts wires two hosts back to back over a 10GbE link.
func twoHosts(t *testing.T) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.NewEngine()
	a := NewHost(eng, HostConfig{Name: "alpha", CPUs: 2, IP: netpkt.IPv4(10, 0, 0, 1),
		MAC: netpkt.MAC{2, 0, 0, 0, 0, 1}, BDF: "03:00.0", Costs: LinuxGuestCosts(), Seed: 1})
	b := NewHost(eng, HostConfig{Name: "beta", CPUs: 2, IP: netpkt.IPv4(10, 0, 0, 2),
		MAC: netpkt.MAC{2, 0, 0, 0, 0, 2}, BDF: "04:00.0", Costs: LinuxGuestCosts(), Seed: 2})
	nic.Connect(a.NIC, b.NIC, nic.DefaultLink())
	return eng, a, b
}

func TestARPResolutionThenDelivery(t *testing.T) {
	eng, a, b := twoHosts(t)
	var got []byte
	b.Stack.BindUDP(7, func(p UDPPacket) { got = p.Data })
	a.Stack.SendUDP(b.Stack.IP(), 7, 5555, []byte("needs-arp"))
	eng.Run()
	if string(got) != "needs-arp" {
		t.Fatalf("payload = %q", got)
	}
	if a.Stack.Stats().ARPRequests != 1 {
		t.Fatal("no ARP request sent")
	}
	if b.Stack.Stats().ARPReplies != 1 {
		t.Fatal("no ARP reply sent")
	}
	// Second send must not re-ARP.
	a.Stack.SendUDP(b.Stack.IP(), 7, 5555, []byte("cached"))
	eng.Run()
	if a.Stack.Stats().ARPRequests != 1 {
		t.Fatal("ARP cache not used")
	}
}

func TestUDPEcho(t *testing.T) {
	eng, a, b := twoHosts(t)
	b.Stack.BindUDP(9, func(p UDPPacket) {
		b.Stack.SendUDP(p.Src, p.SrcPort, 9, append([]byte("echo:"), p.Data...))
	})
	var reply []byte
	a.Stack.BindUDP(5000, func(p UDPPacket) { reply = p.Data })
	a.Stack.SendUDP(b.Stack.IP(), 9, 5000, []byte("hi"))
	eng.Run()
	if string(reply) != "echo:hi" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestUDPLargeDatagramFragments(t *testing.T) {
	eng, a, b := twoHosts(t)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	var got []byte
	b.Stack.BindUDP(9, func(p UDPPacket) { got = p.Data })
	a.Stack.SendUDP(b.Stack.IP(), 9, 5000, payload)
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmented datagram corrupted")
	}
}

func TestUDPPortValidation(t *testing.T) {
	_, a, _ := twoHosts(t)
	if err := a.Stack.BindUDP(53, func(UDPPacket) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Stack.BindUDP(53, func(UDPPacket) {}); err == nil {
		t.Fatal("double bind succeeded")
	}
	a.Stack.UnbindUDP(53)
	if err := a.Stack.BindUDP(53, func(UDPPacket) {}); err != nil {
		t.Fatal("rebind after unbind failed")
	}
}

func TestUDPUnboundPortDropped(t *testing.T) {
	eng, a, b := twoHosts(t)
	a.Stack.SendUDP(b.Stack.IP(), 1234, 5000, []byte("void"))
	eng.Run()
	if b.Stack.Stats().RxDropNoHandler != 1 {
		t.Fatal("datagram to unbound port not counted as dropped")
	}
}

func TestPingRTT(t *testing.T) {
	eng, a, b := twoHosts(t)
	var rtt sim.Time = -1
	a.Stack.Ping(b.Stack.IP(), 56, func(d sim.Time) { rtt = d })
	eng.Run()
	if rtt <= 0 {
		t.Fatal("no ping reply")
	}
	// Direct 10GbE hosts: RTT should be tens of microseconds here.
	if rtt > 200*sim.Microsecond {
		t.Fatalf("direct-link RTT = %v, implausibly slow", rtt)
	}
}

// A ping whose payload exceeds the MTU leaves as three fragments each way,
// and a reply arrives: the echo header's checksum, taken over the header
// and the payload each fragment copies separately, verifies on the
// reassembled request and reply alike, or DecodeICMPEcho drops them.
func TestPingFragmented(t *testing.T) {
	eng, a, b := twoHosts(t)
	var rtt sim.Time = -1
	a.Stack.Ping(b.Stack.IP(), 3000, func(d sim.Time) { rtt = d })
	eng.Run()
	if rtt <= 0 {
		t.Fatal("no reply to a fragmented ping")
	}
	if got := a.Stack.Stats().TxPackets; got != 3 {
		t.Fatalf("the request left as %d IP packets, want 3 fragments", got)
	}
	if got := b.Stack.Stats().TxPackets; got != 3 {
		t.Fatalf("the reply left as %d IP packets, want 3 fragments", got)
	}
}

func TestTCPHandshakeAndData(t *testing.T) {
	eng, a, b := twoHosts(t)
	var serverGot []byte
	b.Stack.Listen(80, func(c *Conn) {
		c.OnData(func(data []byte) {
			serverGot = append(serverGot, data...)
			c.Send([]byte("pong"))
		})
	})
	var clientGot []byte
	a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.OnData(func(data []byte) { clientGot = append(clientGot, data...) })
		c.Send([]byte("ping"))
	})
	eng.Run()
	if string(serverGot) != "ping" || string(clientGot) != "pong" {
		t.Fatalf("exchange = %q / %q", serverGot, clientGot)
	}
}

func TestTCPBulkTransferIntegrity(t *testing.T) {
	eng, a, b := twoHosts(t)
	payload := make([]byte, 1<<20) // 1 MiB: far beyond one window
	rng := sim.NewRand(99)
	rng.Bytes(payload)

	var received []byte
	done := false
	b.Stack.Listen(5001, func(c *Conn) {
		c.OnData(func(data []byte) { received = append(received, data...) })
		c.OnClose(func(error) { done = true })
	})
	a.Stack.Dial(b.Stack.IP(), 5001, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Send(payload)
		c.Close()
	})
	if !eng.RunCapped(3_000_000) {
		t.Fatal("bulk transfer livelocked")
	}
	if !done {
		t.Fatal("receiver never saw close")
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("bulk payload corrupted: got %d bytes want %d", len(received), len(payload))
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	eng, a, b := twoHosts(t)
	var dialErr error
	called := false
	a.Stack.Dial(b.Stack.IP(), 81, func(c *Conn, err error) {
		called = true
		dialErr = err
	})
	eng.Run()
	if !called {
		t.Fatal("dial callback never fired")
	}
	if dialErr == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPListenerValidation(t *testing.T) {
	_, a, _ := twoHosts(t)
	if err := a.Stack.Listen(80, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Stack.Listen(80, func(*Conn) {}); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestTCPConcurrentConnections(t *testing.T) {
	eng, a, b := twoHosts(t)
	const conns = 10
	got := make(map[int]string)
	b.Stack.Listen(80, func(c *Conn) {
		c.OnData(func(data []byte) { c.Send(append([]byte("r-"), data...)) })
	})
	for i := 0; i < conns; i++ {
		i := i
		a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			c.OnData(func(data []byte) { got[i] = string(data) })
			c.Send([]byte{byte('0' + i)})
		})
	}
	eng.Run()
	if len(got) != conns {
		t.Fatalf("%d/%d connections completed", len(got), conns)
	}
	for i, v := range got {
		if v != "r-"+string(rune('0'+i)) {
			t.Fatalf("conn %d got %q", i, v)
		}
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	// Squeeze the sender NIC queue so the burst overflows and drops, then
	// verify retransmission still delivers everything.
	eng := sim.NewEngine()
	a := NewHost(eng, HostConfig{Name: "alpha", CPUs: 2, IP: netpkt.IPv4(10, 0, 0, 1),
		MAC: netpkt.MAC{2, 0, 0, 0, 0, 1}, BDF: "03:00.0", Costs: LinuxGuestCosts(), Seed: 1})
	b := NewHost(eng, HostConfig{Name: "beta", CPUs: 2, IP: netpkt.IPv4(10, 0, 0, 2),
		MAC: netpkt.MAC{2, 0, 0, 0, 0, 2}, BDF: "04:00.0", Costs: LinuxGuestCosts(), Seed: 2})
	cfg := nic.DefaultLink()
	cfg.TxQueueBytes = 8 << 10 // 8 KiB queue: bursts will drop
	nic.Connect(a.NIC, b.NIC, cfg)

	payload := make([]byte, 256<<10)
	sim.NewRand(7).Bytes(payload)
	var received []byte
	b.Stack.Listen(5001, func(c *Conn) {
		c.OnData(func(data []byte) { received = append(received, data...) })
	})
	var sender *Conn
	a.Stack.Dial(b.Stack.IP(), 5001, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		sender = c
		c.Send(payload)
	})
	if !eng.RunCapped(5_000_000) {
		t.Fatal("lossy transfer livelocked")
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("lossy transfer corrupted: got %d want %d bytes", len(received), len(payload))
	}
	if sender.Retransmits() == 0 {
		t.Fatal("expected retransmissions over the lossy link")
	}
}

func TestTCPThroughputNearLineRate(t *testing.T) {
	eng, a, b := twoHosts(t)
	payload := make([]byte, 8<<20)
	var rx int
	var start, end sim.Time
	b.Stack.Listen(5201, func(c *Conn) {
		start = eng.Now()
		c.OnData(func(data []byte) {
			rx += len(data)
			end = eng.Now()
		})
	})
	a.Stack.Dial(b.Stack.IP(), 5201, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Send(payload)
	})
	if !eng.RunCapped(10_000_000) {
		t.Fatal("throughput test livelocked")
	}
	if rx != len(payload) {
		t.Fatalf("received %d of %d bytes", rx, len(payload))
	}
	gbps := float64(rx*8) / (end - start).Seconds() / 1e9
	if gbps < 5 {
		t.Fatalf("host-to-host TCP = %.2f Gbps, want > 5", gbps)
	}
}
