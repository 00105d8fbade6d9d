package nic

import (
	"bytes"
	"testing"

	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

var testPool = framepool.New()

// buf wraps raw bytes in a pooled frame buffer.
func buf(b []byte) *framepool.Buf {
	f := testPool.GetLen(len(b))
	copy(f.Extend(len(b)), b)
	return f
}

func pair(eng *sim.Engine, cfg LinkConfig) (*NIC, *NIC) {
	a := New(eng, "eth-a", netpkt.MAC{0, 0, 0, 0, 0, 1}, "03:00.0")
	b := New(eng, "eth-b", netpkt.MAC{0, 0, 0, 0, 0, 2}, "04:00.0")
	Connect(a, b, cfg)
	return a, b
}

func TestFrameDelivery(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng, DefaultLink())
	var got []byte
	b.SetRecv(func(f *framepool.Buf) {
		got = append([]byte(nil), f.Bytes()...)
		f.Release()
	})
	payload := []byte("hello wire")
	if !a.Send(buf(payload)) {
		t.Fatal("send failed")
	}
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %q", got)
	}
	if a.Stats().TxFrames != 1 || b.Stats().RxFrames != 1 {
		t.Fatal("stats not updated")
	}
}

func TestWireTimeMatchesLineRate(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLink()
	a, b := pair(eng, cfg)
	var at sim.Time = -1
	b.SetRecv(func(f *framepool.Buf) { at = eng.Now(); f.Release() })
	a.Send(buf(make([]byte, 1500)))
	eng.Run()
	// (1500+24)*8 bits at 10 Gb/s = 1219.2ns, plus 600ns propagation.
	want := sim.Time((1500+24)*8*100/1000) + cfg.PropDelay
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestSerializationBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng, DefaultLink())
	var times []sim.Time
	b.SetRecv(func(f *framepool.Buf) { times = append(times, eng.Now()); f.Release() })
	for i := 0; i < 3; i++ {
		a.Send(buf(make([]byte, 1500)))
	}
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d frames", len(times))
	}
	gap1 := times[1] - times[0]
	gap2 := times[2] - times[1]
	if gap1 != gap2 || gap1 <= 0 {
		t.Fatalf("frames not serialized at line rate: gaps %v %v", gap1, gap2)
	}
}

func TestTailDropWhenQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLink()
	cfg.TxQueueBytes = 16 << 10 // tiny queue
	a, _ := pair(eng, cfg)
	dropped := 0
	for i := 0; i < 100; i++ {
		if !a.Send(buf(make([]byte, 1500))) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no drops despite overrun")
	}
	if a.Stats().TxDrops != uint64(dropped) {
		t.Fatal("drop stats mismatch")
	}
	// After draining, sends succeed again.
	eng.Run()
	if !a.Send(buf(make([]byte, 1500))) {
		t.Fatal("send failed after drain")
	}
}

func TestBidirectional(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng, DefaultLink())
	var fromA, fromB string
	a.SetRecv(func(f *framepool.Buf) { fromB = string(f.Bytes()); f.Release() })
	b.SetRecv(func(f *framepool.Buf) { fromA = string(f.Bytes()); f.Release() })
	a.Send(buf([]byte("a->b")))
	b.Send(buf([]byte("b->a")))
	eng.Run()
	if fromA != "a->b" || fromB != "b->a" {
		t.Fatalf("duplex exchange failed: %q %q", fromA, fromB)
	}
}

func TestSendUnconnectedPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "lonely", netpkt.MAC{}, "00:00.0")
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected NIC did not panic")
		}
	}()
	n.Send(buf([]byte("x")))
}

func TestZeroCopyDelivery(t *testing.T) {
	// The receiver gets the sender's buffer itself — one reference moves
	// through the wire without any intermediate copy.
	eng := sim.NewEngine()
	a, b := pair(eng, DefaultLink())
	var got *framepool.Buf
	b.SetRecv(func(f *framepool.Buf) { got = f })
	sent := buf([]byte("same bytes"))
	a.Send(sent)
	eng.Run()
	if got != sent {
		t.Fatalf("received buffer %p, want the sent buffer %p", got, sent)
	}
	if string(got.Bytes()) != "same bytes" {
		t.Fatalf("payload corrupted: %q", got.Bytes())
	}
	got.Release()
}

func TestThroughputApproachesLineRate(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pair(eng, DefaultLink())
	var rxBytes int64
	b.SetRecv(func(f *framepool.Buf) { rxBytes += int64(f.Len()); f.Release() })
	// Offer 2000 MTU frames as fast as the queue allows.
	sent := 0
	var offer func()
	offer = func() {
		for sent < 2000 && a.Send(buf(make([]byte, 1500))) {
			sent++
		}
		if sent < 2000 {
			eng.After(100*sim.Microsecond, offer)
		}
	}
	offer()
	eng.Run()
	elapsed := eng.Now()
	gbps := float64(rxBytes*8) / elapsed.Seconds() / 1e9
	if gbps < 9.0 || gbps > 10.0 {
		t.Fatalf("bulk throughput = %.2f Gbps, want ~9.8", gbps)
	}
}
