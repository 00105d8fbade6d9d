package netstack

import (
	"errors"
	"testing"

	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/nic"
	"kite/internal/sim"
)

// rtoHosts builds a host pair with the given link characteristics.
func rtoHosts(t *testing.T, cfg nic.LinkConfig) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.NewEngine()
	a := NewHost(eng, HostConfig{Name: "a", CPUs: 2, IP: netpkt.IPv4(10, 0, 0, 1),
		MAC: netpkt.MAC{2, 0, 0, 0, 0, 1}, BDF: "03:00.0", Costs: LinuxGuestCosts(), Seed: 1})
	b := NewHost(eng, HostConfig{Name: "b", CPUs: 2, IP: netpkt.IPv4(10, 0, 0, 2),
		MAC: netpkt.MAC{2, 0, 0, 0, 0, 2}, BDF: "04:00.0", Costs: LinuxGuestCosts(), Seed: 2})
	nic.Connect(a.NIC, b.NIC, cfg)
	return eng, a, b
}

func TestRTTSamplingConvergesRTO(t *testing.T) {
	eng, a, b := rtoHosts(t, nic.DefaultLink())
	b.Stack.Listen(80, func(c *Conn) {
		c.OnData(func(d []byte) { c.Send(d) })
	})
	var conn *Conn
	n := 0
	a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		conn = c
		c.OnData(func([]byte) {
			n++
			if n < 20 {
				c.Send([]byte("x"))
			}
		})
		c.Send([]byte("x"))
	})
	if !eng.RunCapped(1_000_000) {
		t.Fatal("livelock")
	}
	if conn.srtt == 0 {
		t.Fatal("no RTT samples taken")
	}
	// Sub-millisecond link: smoothed RTT must be tiny and the RTO clamped
	// to the floor, far below the conservative pre-sample value.
	if conn.srtt > sim.Millisecond {
		t.Fatalf("srtt = %v, implausible for a direct link", conn.srtt)
	}
	if conn.rto() != rtoMin {
		t.Fatalf("converged rto = %v, want clamp at %v", conn.rto(), rtoMin)
	}
}

func TestInitialRTOConservative(t *testing.T) {
	eng, a, b := rtoHosts(t, nic.DefaultLink())
	b.Stack.Listen(80, func(*Conn) {})
	c := a.Stack.Dial(b.Stack.IP(), 80, func(*Conn, error) {})
	eng.RunFor(sim.Millisecond)
	if got := c.rto(); got <= rtoMin*2 {
		t.Fatalf("pre-sample rto = %v, want conservative (>> %v)", got, rtoMin)
	}
}

func TestRTOBackoffAndReset(t *testing.T) {
	// Cut the wire after the handshake so retransmissions time out
	// repeatedly: the timeout must grow (backoff) and stay clamped.
	eng, a, b := rtoHosts(t, nic.DefaultLink())
	b.Stack.Listen(80, func(c *Conn) {})
	var conn *Conn
	a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
		if err != nil {
			return
		}
		conn = c
	})
	eng.RunFor(10 * sim.Millisecond)
	if conn == nil {
		t.Fatal("handshake failed")
	}
	// Black-hole everything from now on.
	b.NIC.SetRecv(func(f *framepool.Buf) { f.Release() })
	conn.Send([]byte("into the void"))
	eng.RunFor(300 * sim.Millisecond)
	if conn.rtoBackoff < 2 {
		t.Fatalf("backoff = %d after repeated timeouts, want growth", conn.rtoBackoff)
	}
	if conn.rto() > rtoMax {
		t.Fatalf("rto = %v exceeds clamp %v", conn.rto(), rtoMax)
	}
	if conn.Retransmits() == 0 {
		t.Fatal("no retransmissions against a black hole")
	}
}

func TestNoSpuriousRetransmitsUnderLoad(t *testing.T) {
	// Dozens of concurrent request/response conns on a healthy link must
	// produce zero retransmissions (the Fig 10 regression this guards).
	eng, a, b := rtoHosts(t, nic.DefaultLink())
	b.Stack.Listen(80, func(c *Conn) {
		c.OnData(func(d []byte) { c.Send(make([]byte, 8000)) })
	})
	done := 0
	for i := 0; i < 30; i++ {
		a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			reqs := 0
			c.OnData(func(d []byte) {
				got += len(d)
				if got >= 8000 {
					got = 0
					reqs++
					if reqs == 10 {
						done++
						return
					}
					c.Send([]byte("q"))
				}
			})
			c.Send([]byte("q"))
		})
	}
	if !eng.RunCapped(5_000_000) {
		t.Fatal("livelock")
	}
	if done != 30 {
		t.Fatalf("%d of 30 conns completed", done)
	}
	fa, ra := a.Stack.RetransBreakdown()
	fb, rb := b.Stack.RetransBreakdown()
	if fa+ra+fb+rb != 0 {
		t.Fatalf("spurious retransmissions on a clean link: a=%d/%d b=%d/%d", fa, ra, fb, rb)
	}
}

func TestSingleDelayedAckTimer(t *testing.T) {
	eng, a, b := rtoHosts(t, nic.DefaultLink())
	var server *Conn
	b.Stack.Listen(80, func(c *Conn) { server = c })
	var client *Conn
	a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) { client = c })
	eng.RunFor(5 * sim.Millisecond)
	if server == nil || client == nil {
		t.Fatal("handshake failed")
	}
	// Send several lone segments spaced under the delack timeout: the ack
	// timer must be armed at most once at a time.
	for i := 0; i < 3; i++ {
		client.Send([]byte("z"))
		eng.RunFor(100 * sim.Microsecond)
		if server.ackTimerOn && i > 0 {
			// timer on is fine; what matters is pending count sanity
			if server.ackPending > 2 {
				t.Fatalf("ackPending = %d, acks not being sent", server.ackPending)
			}
		}
	}
	eng.RunFor(3 * delayedAckTimeout)
	if server.ackPending != 0 {
		t.Fatalf("ackPending = %d after timeout, want 0", server.ackPending)
	}
}

// TestUnreachablePeerGivesUp: a dial into a black hole retransmits its SYN
// synRetries times and then fails, and a connection whose peer vanishes
// after the handshake retransmits retries2 times and then fails; either
// way the error reaches the caller and the engine drains.
func TestUnreachablePeerGivesUp(t *testing.T) {
	t.Run("syn", func(t *testing.T) {
		eng, a, b := rtoHosts(t, nic.DefaultLink())
		b.NIC.SetRecv(func(f *framepool.Buf) { f.Release() })
		var got error
		calls := 0
		c := a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
			calls++
			got = err
			if c != nil {
				t.Error("a dial into a black hole connected")
			}
		})
		if !eng.RunCapped(1_000_000) {
			t.Fatal("the engine did not drain")
		}
		if calls != 1 || !errors.Is(got, errTimedOut) {
			t.Fatalf("dial callback ran %d times with %v, want once with errTimedOut", calls, got)
		}
		if n := c.Retransmits(); n != synRetries {
			t.Fatalf("%d SYN retransmissions, want %d", n, synRetries)
		}
	})
	t.Run("established", func(t *testing.T) {
		eng, a, b := rtoHosts(t, nic.DefaultLink())
		b.Stack.Listen(80, func(*Conn) {})
		var conn *Conn
		a.Stack.Dial(b.Stack.IP(), 80, func(c *Conn, err error) {
			if err != nil {
				t.Fatal(err)
			}
			conn = c
		})
		eng.RunFor(10 * sim.Millisecond)
		if conn == nil {
			t.Fatal("handshake failed")
		}
		var got error
		calls := 0
		conn.OnClose(func(err error) { calls++; got = err })
		b.NIC.SetRecv(func(f *framepool.Buf) { f.Release() })
		conn.Send([]byte("into the void"))
		if !eng.RunCapped(1_000_000) {
			t.Fatal("the engine did not drain")
		}
		if calls != 1 || !errors.Is(got, errTimedOut) {
			t.Fatalf("close callback ran %d times with %v, want once with errTimedOut", calls, got)
		}
		if n := conn.Retransmits(); n != retries2 {
			t.Fatalf("%d retransmissions, want %d", n, retries2)
		}
	})
}
