package core

import (
	"bytes"
	"fmt"
	"testing"

	"kite/internal/apps"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/nic"
	"kite/internal/sim"
	"kite/internal/xenbus"
)

func TestNetworkRigBothKinds(t *testing.T) {
	for _, kind := range []DriverKind{KindKite, KindLinux} {
		t.Run(kind.String(), func(t *testing.T) {
			rig, err := NewNetworkRig(kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			var rtt sim.Time = -1
			rig.Client.Stack.Ping(rig.GuestIP, 56, func(d sim.Time) { rtt = d })
			if !rig.System.RunReady(func() bool { return rtt >= 0 }, 500000) {
				t.Fatal("ping never completed")
			}
			if rtt <= 0 || rtt > 2*sim.Millisecond {
				t.Fatalf("rtt = %v", rtt)
			}
		})
	}
}

func TestStorageRigBothKinds(t *testing.T) {
	for _, kind := range []DriverKind{KindKite, KindLinux} {
		t.Run(kind.String(), func(t *testing.T) {
			rig, err := NewStorageRig(StorageRigConfig{Kind: kind, Seed: 2, DiskBytes: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			f, err := rig.Guest.FS.Create("test.dat")
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 256<<10)
			sim.NewRand(9).Bytes(payload)
			var got []byte
			rig.Guest.FS.Write(f, 0, payload, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				rig.Guest.FS.Read(f, 0, len(payload), func(b []byte, err error) {
					if err != nil {
						t.Fatal(err)
					}
					got = b
				})
			})
			if !rig.System.RunReady(func() bool { return got != nil }, 2_000_000) {
				t.Fatal("fs round trip never completed")
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("file data corrupted through the storage domain")
			}
		})
	}
}

func TestCombinedNetworkAndStorage(t *testing.T) {
	// One guest with both a vif and a vbd, each served by its own Kite
	// driver domain — the full Qubes-style decomposition.
	tb := NewTestbed(3)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: tb.ServerNIC})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := tb.System.CreateStorageDomain(StorageDomainConfig{Kind: KindKite, Device: tb.NVMe})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := tb.System.CreateGuest(GuestConfig{
		Name: "domU", IP: tb.GuestIP, Net: nd,
		Storage: sd, DiskBytes: 1 << 30, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(guest.Ready, 500000) {
		t.Fatal("combined guest never ready")
	}

	// Serve a file from disk over HTTP through both driver domains.
	srv, err := apps.NewHTTPServer(guest.Stack, 80)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 64<<10)
	sim.NewRand(11).Bytes(content)
	f, _ := guest.FS.Create("index.bin")
	loaded := false
	guest.FS.Write(f, 0, content, func(err error) {
		guest.FS.Read(f, 0, len(content), func(b []byte, err error) {
			srv.AddFile("/index.bin", b)
			loaded = true
		})
	})
	if !tb.System.RunReady(func() bool { return loaded }, 2_000_000) {
		t.Fatal("content load never completed")
	}

	var resp []byte
	tb.Client.Stack.Dial(tb.GuestIP, 80, func(c *netstack.Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnData(func(b []byte) { resp = append(resp, b...) })
		c.Send([]byte("GET /index.bin HTTP/1.1\r\n\r\n"))
	})
	if !tb.System.RunReady(func() bool {
		return bytes.Contains(resp, content[len(content)-64:])
	}, 3_000_000) {
		t.Fatal("HTTP-from-disk transfer incomplete")
	}
}

func TestDHCPDaemonVM(t *testing.T) {
	tb := NewTestbed(4)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: tb.ServerNIC})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := tb.System.CreateDHCPDaemonVM(nd, netpkt.IPv4(10, 0, 0, 53),
		netpkt.IPv4(10, 0, 0, 100), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(vm.Guest.Ready, 500000) {
		t.Fatal("daemon VM never ready")
	}
	// The daemon VM must be a unikernel profile.
	if vm.Guest.Profile.Name != "kite-dhcp" {
		t.Fatalf("daemon profile = %s", vm.Guest.Profile.Name)
	}

	// DORA from the client machine over the bridge.
	mac := tb.Client.NIC.MAC()
	var acked netpkt.IP
	tb.Client.Stack.BindUDP(apps.DHCPClientPort, func(p netstack.UDPPacket) {
		m, err := apps.ParseDHCP(p.Data)
		if err != nil || m.ClientMAC != mac {
			return
		}
		switch m.MsgType {
		case apps.DHCPOffer:
			req := &apps.DHCPMessage{Op: 1, XID: 2, ClientMAC: mac,
				MsgType: apps.DHCPRequest, RequestedIP: m.YourIP}
			tb.Client.Stack.SendUDP(netpkt.BroadcastIP, apps.DHCPServerPort,
				apps.DHCPClientPort, req.Marshal())
		case apps.DHCPAck:
			acked = m.YourIP
		}
	})
	disc := &apps.DHCPMessage{Op: 1, XID: 1, ClientMAC: mac, MsgType: apps.DHCPDiscover}
	tb.Client.Stack.SendUDP(netpkt.BroadcastIP, apps.DHCPServerPort,
		apps.DHCPClientPort, disc.Marshal())
	if !tb.System.RunReady(func() bool { return acked != (netpkt.IP{}) }, 1_000_000) {
		t.Fatal("DORA through driver domain never completed")
	}
	if vm.Server.Leases() != 1 {
		t.Fatalf("leases = %d", vm.Server.Leases())
	}
}

func TestBootOptionDelaysService(t *testing.T) {
	tb := NewTestbed(5)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{
		Kind: KindKite, NIC: tb.ServerNIC, Boot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Ready() {
		t.Fatal("booting domain ready immediately")
	}
	tb.System.Eng.RunUntil(6 * sim.Second)
	if nd.Ready() {
		t.Fatal("kite domain ready before its 7s boot")
	}
	tb.System.Eng.RunUntil(8 * sim.Second)
	if !nd.Ready() {
		t.Fatal("kite domain not ready after boot")
	}
	if len(nd.BootLog()) != len(nd.Profile.BootPhases) {
		t.Fatalf("boot log has %d phases", len(nd.BootLog()))
	}
}

func TestGuestCloseDetachesFromBridge(t *testing.T) {
	rig, err := NewNetworkRig(KindKite, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rig.ND.Bridge.Ports()); got != 2 {
		t.Fatalf("bridge ports = %d", got)
	}
	rig.Guest.CloseNet(rig.Testbed.System)
	rig.Testbed.System.Eng.RunFor(10 * sim.Millisecond)
	if got := len(rig.ND.Bridge.Ports()); got != 1 {
		t.Fatalf("bridge ports after close = %d, want 1", got)
	}
	if got := len(rig.ND.Driver.VIFs()); got != 0 {
		t.Fatalf("vifs after close = %d, want 0", got)
	}
}

func TestDriverDomainRestartScenario(t *testing.T) {
	// Crash the Kite network domain, rebuild it (fast: 7s boot), reattach
	// the guest with a fresh vif, and verify traffic flows again — the
	// recovery story §5.2 motivates with fast boot times.
	rig, err := NewNetworkRig(KindKite, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Testbed.System
	if err := sys.HV.DestroyDomain(rig.ND.Dom.ID); err != nil {
		t.Fatal(err)
	}
	sys.Eng.RunFor(sim.Millisecond)

	// Build the replacement domain (with its 7 s boot) and replug the SAME
	// guest's vif onto it — no guest restart needed.
	nd2, err := sys.CreateNetworkDomain(NetworkDomainConfig{
		Kind: KindKite, NIC: rig.ServerNIC, Boot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.RunReady(nd2.Ready, 1_000_000) {
		t.Fatal("replacement domain never booted")
	}
	if err := rig.Guest.Reattach(sys, nd2); err != nil {
		t.Fatal(err)
	}
	if !sys.RunReady(rig.Guest.Ready, 500000) {
		t.Fatal("replugged vif never connected")
	}
	var rtt sim.Time = -1
	rig.Client.Stack.Ping(rig.GuestIP, 56, func(d sim.Time) { rtt = d })
	if !sys.RunReady(func() bool { return rtt >= 0 }, 500000) {
		t.Fatal("ping after restart never completed")
	}
	// The whole outage window is bounded by the 7 s boot.
	if sys.Eng.Now() > 9*sim.Second {
		t.Fatalf("recovery took %v, want ~7 s", sys.Eng.Now())
	}
}

func TestVbdWindowsDoNotOverlap(t *testing.T) {
	tb := NewTestbed(8)
	sd, _ := tb.System.CreateStorageDomain(StorageDomainConfig{Kind: KindKite, Device: tb.NVMe})
	g1, err := tb.System.CreateGuest(GuestConfig{Name: "g1", Storage: sd, DiskBytes: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tb.System.CreateGuest(GuestConfig{Name: "g2", Storage: sd, DiskBytes: 1 << 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(func() bool { return g1.Ready() && g2.Ready() }, 500000) {
		t.Fatal("guests never ready")
	}
	// Writes at the same guest-relative sector must not collide.
	a := bytes.Repeat([]byte{0xAA}, 4096)
	b := bytes.Repeat([]byte{0xBB}, 4096)
	okA, okB := false, false
	g1.Disk.WriteSectors(0, a, func(err error) { okA = err == nil })
	g2.Disk.WriteSectors(0, b, func(err error) { okB = err == nil })
	tb.System.Eng.RunFor(10 * sim.Millisecond)
	if !okA || !okB {
		t.Fatal("writes failed")
	}
	var backA, backB []byte
	g1.Disk.ReadSectors(0, 4096, func(d []byte, _ error) { backA = append([]byte(nil), d...) })
	g2.Disk.ReadSectors(0, 4096, func(d []byte, _ error) { backB = append([]byte(nil), d...) })
	tb.System.Eng.RunFor(10 * sim.Millisecond)
	if !bytes.Equal(backA, a) || !bytes.Equal(backB, b) {
		t.Fatal("vbd windows overlap")
	}
}

func TestXenstoreDevicePathsCreated(t *testing.T) {
	rig, err := NewNetworkRig(KindKite, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Testbed.System
	fp := xenbus.FrontendPath(xenbus.DomID(rig.Guest.Dom.ID), "vif", 0)
	if sys.Bus.State(fp) != xenbus.StateConnected {
		t.Fatalf("frontend state = %v", sys.Bus.State(fp))
	}
	if _, ok := sys.Store.Read(fp + "/mac"); !ok {
		t.Fatal("vif mac not in xenstore")
	}
}

func TestNATModeOutboundAndForward(t *testing.T) {
	tb := NewTestbed(11)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{
		Kind: KindKite, NIC: tb.ServerNIC,
		NAT: true, GatewayIP: netpkt.IPv4(10, 0, 0, 254),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guest on a private segment behind the NAT.
	guest, err := tb.System.CreateGuest(GuestConfig{
		Name: "natted", IP: netpkt.IPv4(192, 168, 7, 5), Net: nd, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(guest.Ready, 500000) {
		t.Fatal("guest never ready")
	}
	if nd.NAT() == nil {
		t.Fatal("NAT mode did not create a translator")
	}

	// Outbound: the guest pings the client; the client sees the gateway.
	var rtt sim.Time = -1
	guest.Stack.Ping(tb.ClientIP, 56, func(d sim.Time) { rtt = d })
	if !tb.System.RunReady(func() bool { return rtt >= 0 }, 1_000_000) {
		t.Fatal("ping through NAT never completed")
	}

	// Outbound UDP: client echoes; reply must come back to the guest.
	tb.Client.Stack.BindUDP(9, func(p netstack.UDPPacket) {
		if p.Src != netpkt.IPv4(10, 0, 0, 254) {
			t.Fatalf("client saw source %v, want the gateway", p.Src)
		}
		tb.Client.Stack.SendUDP(p.Src, p.SrcPort, 9, p.Data)
	})
	var echoed []byte
	guest.Stack.BindUDP(5000, func(p netstack.UDPPacket) { echoed = p.Data })
	guest.Stack.SendUDP(tb.ClientIP, 9, 5000, []byte("masqueraded"))
	if !tb.System.RunReady(func() bool { return echoed != nil }, 1_000_000) {
		t.Fatal("udp echo through NAT never completed")
	}
	if string(echoed) != "masqueraded" {
		t.Fatalf("echoed = %q", echoed)
	}

	// Unsolicited inbound is dropped (the NAT's implicit firewall)...
	gotUnsolicited := false
	guest.Stack.BindUDP(7777, func(netstack.UDPPacket) { gotUnsolicited = true })
	tb.Client.Stack.SendUDP(netpkt.IPv4(10, 0, 0, 254), 7777, 6000, []byte("scan"))
	tb.System.Eng.RunFor(5 * sim.Millisecond)
	if gotUnsolicited {
		t.Fatal("unsolicited inbound reached the guest")
	}

	// ...until a static forward is installed (TCP this time).
	if err := nd.NAT().AddForward(8080, guest.Stack.IP(), 80); err != nil {
		t.Fatal(err)
	}
	srv, err := apps.NewHTTPServer(guest.Stack, 80)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddFile("/x", []byte("behind-nat"))
	var body []byte
	tb.Client.Stack.Dial(netpkt.IPv4(10, 0, 0, 254), 8080, func(c *netstack.Conn, err error) {
		if err != nil {
			t.Fatalf("dial forwarded port: %v", err)
		}
		c.OnData(func(b []byte) { body = append(body, b...) })
		c.Send([]byte("GET /x HTTP/1.1\r\n\r\n"))
	})
	if !tb.System.RunReady(func() bool {
		return bytes.Contains(body, []byte("behind-nat"))
	}, 2_000_000) {
		t.Fatal("forwarded HTTP fetch never completed")
	}
}

func TestMultiNICNetworkDomain(t *testing.T) {
	// One Kite network domain bridging two physical NICs, each cabled to
	// its own client machine; one guest reachable from both sides.
	rig, err := NewNetworkRig(KindKite, 41)
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Testbed.System
	nic2 := nic.New(sys.Eng, "ixgbe1", netpkt.MAC{0x90, 0xe2, 0xba, 0, 0, 0x11}, "05:00.0")
	client2 := netstack.NewHost(sys.Eng, netstack.HostConfig{
		Name: "client2", CPUs: 4, IP: netpkt.IPv4(10, 0, 0, 3),
		MAC: netpkt.MAC{0x90, 0xe2, 0xba, 0, 0, 0x21}, BDF: "82:00.0",
		Costs: netstack.LinuxGuestCosts(), Seed: 41,
	})
	nic.Connect(nic2, client2.NIC, nic.DefaultLink())
	if err := rig.ND.AttachNIC(sys, nic2, "if1"); err != nil {
		t.Fatal(err)
	}

	var rtt1, rtt2 sim.Time = -1, -1
	rig.Client.Stack.Ping(rig.GuestIP, 56, func(d sim.Time) { rtt1 = d })
	client2.Stack.Ping(rig.GuestIP, 56, func(d sim.Time) { rtt2 = d })
	if !sys.RunReady(func() bool { return rtt1 >= 0 && rtt2 >= 0 }, 1_000_000) {
		t.Fatal("pings over both NICs never completed")
	}
	// Cross-NIC forwarding: client1 reaches client2 through the bridge.
	var cross sim.Time = -1
	rig.Client.Stack.Ping(netpkt.IPv4(10, 0, 0, 3), 56, func(d sim.Time) { cross = d })
	if !sys.RunReady(func() bool { return cross >= 0 }, 1_000_000) {
		t.Fatal("client-to-client ping through the driver domain failed")
	}
	out, err := rig.ND.Ifconfig("-a")
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	if len(rig.ND.Bridge.Ports()) != 3 {
		t.Fatalf("bridge ports = %d, want 3 (if0, if1, vif)", len(rig.ND.Bridge.Ports()))
	}
}

func TestDriverDomainSMPScaling(t *testing.T) {
	// §3.1: one Kite domain can serve several NICs for I/O scaling because
	// it supports multiple cores. Two guests stream to two clients over
	// two physical 10GbE NICs: one vCPU caps below the 2x wire aggregate;
	// two vCPUs forward measurably more.
	measure := func(vcpus int) float64 {
		tb := NewTestbed(51)
		sys := tb.System
		nd, err := sys.CreateNetworkDomain(NetworkDomainConfig{
			Kind: KindKite, NIC: tb.ServerNIC, VCPUs: vcpus,
		})
		if err != nil {
			t.Fatal(err)
		}
		nic2 := nic.New(sys.Eng, "ixgbe1", netpkt.MAC{0x90, 0xe2, 0xba, 0, 0, 0x12}, "05:00.0")
		client2 := netstack.NewHost(sys.Eng, netstack.HostConfig{
			Name: "client2", CPUs: 4, IP: netpkt.IPv4(10, 0, 0, 4),
			MAC: netpkt.MAC{0x90, 0xe2, 0xba, 0, 0, 0x22}, BDF: "82:00.0",
			Costs: netstack.LinuxGuestCosts(), Seed: 52,
		})
		nic.Connect(nic2, client2.NIC, nic.DefaultLink())
		if err := nd.AttachNIC(sys, nic2, "if1"); err != nil {
			t.Fatal(err)
		}
		clients := []*netstack.Host{tb.Client, client2}
		var guests []*Guest
		for i := 0; i < 2; i++ {
			g, err := sys.CreateGuest(GuestConfig{
				Name: fmt.Sprintf("g%d", i), IP: netpkt.IPv4(10, 0, 0, byte(10+i)),
				Net: nd, Seed: uint64(51 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, g)
		}
		if !sys.RunReady(func() bool {
			return guests[0].Ready() && guests[1].Ready()
		}, 500000) {
			t.Fatal("guests never ready")
		}
		var rx, rxAtEnd uint64
		for _, c := range clients {
			c.Stack.BindUDP(9, func(p netstack.UDPPacket) { rx += uint64(len(p.Data)) })
		}
		payload := make([]byte, 8192)
		dur := 10 * sim.Millisecond
		start := sys.Eng.Now()
		sys.Eng.After(dur, func() { rxAtEnd = rx })
		for i, g := range guests {
			g, dst := g, clients[i].Stack.IP()
			var pump func()
			pump = func() {
				if sys.Eng.Now()-start >= dur {
					return
				}
				// Offer ~8 Gbps per guest: 4 datagrams per 32.8 us tick.
				for k := 0; k < 4; k++ {
					g.Stack.SendUDP(dst, 9, 5000, payload)
				}
				sys.Eng.After(32800*sim.Nanosecond, pump)
			}
			pump()
		}
		sys.Eng.RunFor(dur + 10*sim.Millisecond)
		return float64(rxAtEnd*8) / dur.Seconds() / 1e9
	}
	one := measure(1)
	two := measure(2)
	if one < 6 {
		t.Fatalf("1-vCPU aggregate = %.2f Gbps, implausibly low", one)
	}
	if two < one*1.15 {
		t.Fatalf("2-vCPU DD did not scale across two NICs: %.2f vs %.2f Gbps", two, one)
	}
}
