package nat

import (
	"testing"

	"kite/internal/netpkt"
	"kite/internal/sim"
)

// churnIP returns the i-th synthetic tenant address, clear of the fixed
// guestIP/remoteIP used elsewhere in the package.
func churnIP(i int) netpkt.IP {
	return netpkt.IPv4(10, 1, byte(i>>8), byte(i))
}

// slabTotal reports the record capacity across flow-table shards — the
// record memory footprint, as opposed to the live flow count.
func slabTotal(tr *Translator) int { return tr.flows.Cap() }

// TestPortExhaustionAndRecovery drives the translator to dynamic-port
// exhaustion (every one of the portSpan external ports claimed by a
// distinct tenant flow), checks further outbound traffic is dropped with
// the exhaustion counted, and that the Expire sweep returns every port
// and record so allocation succeeds again — with the slab capacity stable
// across the full drain-and-refill cycle, proving records recycle through
// the free-list instead of leaking.
func TestPortExhaustionAndRecovery(t *testing.T) {
	eng, tr := newT()

	fill := func() {
		for i := 0; i < portSpan; i++ {
			if tr.flowFor(netpkt.ProtoUDP, churnIP(i), 7777) == nil {
				t.Fatalf("flow %d refused before exhaustion", i)
			}
		}
	}
	fill()
	if tr.Flows() != portSpan || tr.dynPorts != portSpan {
		t.Fatalf("flows=%d dynPorts=%d after fill, want %d each",
			tr.Flows(), tr.dynPorts, portSpan)
	}

	// One more tenant: the allocator must fail detectably, not spin.
	if tr.flowFor(netpkt.ProtoUDP, netpkt.IPv4(10, 2, 0, 1), 7777) != nil {
		t.Fatal("flow allocated past port exhaustion")
	}
	if tr.Stats().PortExhausted != 1 {
		t.Fatalf("PortExhausted = %d, want 1", tr.Stats().PortExhausted)
	}
	// Public path: the packet is dropped, not translated.
	pkt := udpPacket(netpkt.IPv4(10, 2, 0, 2), remoteIP, 1234, 53, "x")
	if tr.RewriteOutbound(pkt) {
		t.Fatal("outbound translated past port exhaustion")
	}
	if tr.Stats().PortExhausted != 2 {
		t.Fatalf("PortExhausted = %d after drop, want 2", tr.Stats().PortExhausted)
	}

	capacity := slabTotal(tr)
	eng.RunUntil(60 * sim.Second)
	if expired := tr.Expire(30 * sim.Second); expired != portSpan {
		t.Fatalf("expired %d flows, want %d", expired, portSpan)
	}
	if tr.Flows() != 0 || tr.dynPorts != 0 {
		t.Fatalf("flows=%d dynPorts=%d after sweep, want 0", tr.Flows(), tr.dynPorts)
	}
	if tr.Stats().FlowsExpired != portSpan {
		t.Fatalf("FlowsExpired = %d, want %d", tr.Stats().FlowsExpired, portSpan)
	}

	// Refill the full port space: allocation works again and the record
	// slab does not grow past its first-fill high-water mark.
	fill()
	if tr.Flows() != portSpan {
		t.Fatalf("flows = %d after refill, want %d", tr.Flows(), portSpan)
	}
	if got := slabTotal(tr); got != capacity {
		t.Fatalf("slab capacity %d after refill, want stable %d", got, capacity)
	}
}

// TestDropGuestMidTrafficReleasesPorts detaches one tenant of two
// mid-traffic and checks its flows (and external ports) are released
// immediately while the surviving tenant's translations keep matching —
// the teardown path a churning fleet exercises on every disconnect.
func TestDropGuestMidTrafficReleasesPorts(t *testing.T) {
	_, tr := newT()
	guestA := netpkt.IPv4(10, 0, 0, 5)
	guestB := netpkt.IPv4(10, 0, 0, 6)
	const flowsEach = 100

	var extA, extB uint16
	for i := 0; i < flowsEach; i++ {
		fa := tr.flowFor(netpkt.ProtoUDP, guestA, uint16(1000+i))
		fb := tr.flowFor(netpkt.ProtoUDP, guestB, uint16(1000+i))
		if fa == nil || fb == nil {
			t.Fatalf("flow %d refused", i)
		}
		if i == 0 {
			extA, extB = fa.Val.extPort, fb.Val.extPort
		}
	}
	if tr.Flows() != 2*flowsEach {
		t.Fatalf("flows = %d, want %d", tr.Flows(), 2*flowsEach)
	}

	if dropped := tr.DropGuest(guestA); dropped != flowsEach {
		t.Fatalf("DropGuest removed %d flows, want %d", dropped, flowsEach)
	}
	if tr.Flows() != flowsEach || tr.dynPorts != flowsEach {
		t.Fatalf("flows=%d dynPorts=%d after drop, want %d each",
			tr.Flows(), tr.dynPorts, flowsEach)
	}
	if _, _, ok := tr.matchInbound(netpkt.ProtoUDP, extA); ok {
		t.Fatal("departed tenant's external port still matches inbound")
	}
	if ip, port, ok := tr.matchInbound(netpkt.ProtoUDP, extB); !ok || ip != guestB || port != 1000 {
		t.Fatalf("survivor's flow broken: ip=%v port=%d ok=%v", ip, port, ok)
	}

	// The tenant reconnects mid-traffic: a fresh outbound packet gets a
	// fresh flow (possibly recycling a just-released port).
	if !tr.RewriteOutbound(udpPacket(guestA, remoteIP, 1000, 53, "back")) {
		t.Fatal("reconnected tenant's outbound dropped")
	}
	if tr.Flows() != flowsEach+1 || tr.dynPorts != flowsEach+1 {
		t.Fatalf("flows=%d dynPorts=%d after reconnect, want %d each",
			tr.Flows(), tr.dynPorts, flowsEach+1)
	}
}

// TestFullPortSpaceAgesOutIdleFlow fills the dynamic port space, lets every
// flow but one sit idle past flowMaxIdle, and checks that a new flow gets a
// port with no Expire call: flowFor reclaims idle flows when allocPort
// finds the space full, and the flow that stayed busy keeps its port.
func TestFullPortSpaceAgesOutIdleFlow(t *testing.T) {
	eng, tr := newT()
	for i := 0; i < portSpan; i++ {
		if tr.flowFor(netpkt.ProtoUDP, churnIP(i), 7777) == nil {
			t.Fatalf("flow %d refused before exhaustion", i)
		}
	}
	eng.RunUntil(flowMaxIdle)
	busy := tr.flowFor(netpkt.ProtoUDP, churnIP(0), 7777).Val.extPort
	eng.RunUntil(flowMaxIdle + 2*sim.Second)

	if !tr.RewriteOutbound(udpPacket(netpkt.IPv4(10, 2, 0, 1), remoteIP, 1234, 53, "x")) {
		t.Fatal("new flow refused while idle flows hold the port space")
	}
	if st := tr.Stats(); st.FlowsExpired != portSpan-1 || st.PortExhausted != 0 {
		t.Fatalf("FlowsExpired=%d PortExhausted=%d, want %d and 0", st.FlowsExpired, st.PortExhausted, portSpan-1)
	}
	if tr.Flows() != 2 || tr.dynPorts != 2 {
		t.Fatalf("flows=%d dynPorts=%d, want 2 each", tr.Flows(), tr.dynPorts)
	}
	if ip, _, ok := tr.matchInbound(netpkt.ProtoUDP, busy); !ok || ip != churnIP(0) {
		t.Fatal("the busy flow lost its port to aging")
	}
}
