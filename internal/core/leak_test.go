package core

import (
	"bytes"
	"testing"

	"kite/internal/framepool"
	"kite/internal/netback"
	"kite/internal/netpkt"
	"kite/internal/netstack"
)

// These tests drive netback's guest-bound drop branches — the places a
// frame handed to the VIF ends without reaching a guest buffer — and hold
// each to the pool's leak counter. A frame received as a parameter is
// outside what kitelint's poolref tracks (DESIGN §14), and none of these
// branches is on the path of a healthy workload, so nothing else sees a
// Release dropped from one of them.

// junkFrame takes a buffer from the system pool and fills it with n bytes
// no guest stack will accept.
func junkFrame(pool *framepool.Pool, n int) *framepool.Buf {
	b := pool.GetLen(n)
	clear(b.Extend(n))
	return b
}

func TestRxDropBranchesReleaseFrames(t *testing.T) {
	vifOf := func(t *testing.T, queues int) (*NetworkRig, *netback.VIF) {
		t.Helper()
		rig, err := NewNetworkRigCfg(NetworkRigConfig{Kind: KindKite, Seed: 0x1eaf, Queues: queues})
		if err != nil {
			t.Fatal(err)
		}
		return rig, rig.ND.Driver.VIFs()[0]
	}
	settled := func(t *testing.T, rig *NetworkRig) {
		t.Helper()
		rig.System.Eng.Run()
		if n := rig.System.Pool.Outstanding(); n != 0 {
			t.Fatalf("%d frame buffers leaked", n)
		}
	}

	// More frames in one instant than the guest-bound queue holds, before
	// the soft_start thread has run: the excess is dropped at the queue.
	t.Run("queue full", func(t *testing.T) {
		rig, vif := vifOf(t, 1)
		const over = 64
		for i := 0; i < netback.RxQueueFrames+over; i++ {
			vif.Deliver(junkFrame(rig.System.Pool, 64))
		}
		settled(t, rig)
		if got := vif.Stats().RxQueueDrops; got != over {
			t.Fatalf("RxQueueDrops = %d, want %d", got, over)
		}
	})

	// On a multi-queue vif the frame crosses to its queue's shard as a
	// post; the interface goes away while the post is in flight.
	t.Run("down before the hand-off lands", func(t *testing.T) {
		rig, vif := vifOf(t, 4)
		vif.Deliver(junkFrame(rig.System.Pool, 64))
		vif.SetUp(false)
		settled(t, rig)
	})
	t.Run("dead before the hand-off lands", func(t *testing.T) {
		rig, vif := vifOf(t, 4)
		vif.Deliver(junkFrame(rig.System.Pool, 64))
		vif.Shutdown()
		settled(t, rig)
	})
}

// TestFleetBroadcastFloodLeaksNothing sends one client broadcast into a
// fleet. The bridge floods it as one buffer with a reference per tenant
// port; lane queues live on other shards than the bridge, and every
// reference crosses to its shard as is — the Rx path only reads a shared
// buffer, and whichever tenant finishes last recycles it. Every tenant must
// see the datagram intact and the pool must count nothing outstanding.
func TestFleetBroadcastFloodLeaksNothing(t *testing.T) {
	rig, err := NewFleetRig(FleetConfig{Guests: 4, Lanes: 2, Seed: 0xb0ca57})
	if err != nil {
		t.Fatal(err)
	}
	payload := pattern(128)
	got := 0
	for i, g := range rig.Guests {
		g.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
			if !bytes.Equal(p.Data, payload) {
				t.Errorf("tenant %d read a corrupted broadcast", i)
			}
			got++
		})
	}
	rig.Client.Stack.SendUDP(netpkt.BroadcastIP, 9000, 9001, payload)
	rig.System.Eng.Run()
	if got != len(rig.Guests) {
		t.Fatalf("broadcast reached %d of %d tenants", got, len(rig.Guests))
	}
	if n := rig.System.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}
