package bridge

import (
	"testing"

	"kite/internal/framepool"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

var testPool = framepool.New()

type fakePort struct {
	name string
	got  [][]byte
}

func (p *fakePort) PortName() string { return p.name }
func (p *fakePort) Deliver(frame *framepool.Buf) {
	p.got = append(p.got, append([]byte(nil), frame.Bytes()...))
	frame.Release()
}

func frame(dst, src netpkt.MAC, body string) *framepool.Buf {
	b := testPool.GetLen(netpkt.EthHeaderLen + len(body))
	copy(b.Extend(len(body)), body)
	netpkt.EthHeaderInto(b.Prepend(netpkt.EthHeaderLen), dst, src, netpkt.EtherTypeIPv4)
	return b
}

var (
	macA = netpkt.MAC{0, 0, 0, 0, 0, 0xA}
	macB = netpkt.MAC{0, 0, 0, 0, 0, 0xB}
	macC = netpkt.MAC{0, 0, 0, 0, 0, 0xC}
)

func newBridge() (*sim.Engine, *Bridge, *fakePort, *fakePort, *fakePort) {
	eng := sim.NewEngine()
	cpus := sim.NewCPUPool(eng, "dd", 1)
	b := New(eng, cpus, "xenbr0")
	p1, p2, p3 := &fakePort{name: "if0"}, &fakePort{name: "vif1.0"}, &fakePort{name: "vif2.0"}
	b.AddPort(p1)
	b.AddPort(p2)
	b.AddPort(p3)
	return eng, b, p1, p2, p3
}

func TestFloodUnknownDestination(t *testing.T) {
	eng, b, p1, p2, p3 := newBridge()
	b.Input(p1, frame(macB, macA, "x"))
	eng.Run()
	if len(p1.got) != 0 {
		t.Fatal("frame reflected to source port")
	}
	if len(p2.got) != 1 || len(p3.got) != 1 {
		t.Fatalf("flood delivered %d/%d, want 1/1", len(p2.got), len(p3.got))
	}
	if b.Stats().Flooded != 1 {
		t.Fatal("flood not counted")
	}
}

func TestLearningThenUnicast(t *testing.T) {
	eng, b, p1, p2, p3 := newBridge()
	// B speaks from p2; bridge learns.
	b.Input(p2, frame(macA, macB, "hello"))
	eng.Run()
	if b.Lookup(macB) != p2 {
		t.Fatal("source MAC not learned")
	}
	p1.got, p2.got, p3.got = nil, nil, nil
	// Now A->B goes only to p2.
	b.Input(p1, frame(macB, macA, "reply"))
	eng.Run()
	if len(p2.got) != 1 || len(p3.got) != 0 || len(p1.got) != 0 {
		t.Fatalf("unicast delivery %d/%d/%d, want 0/1/0", len(p1.got), len(p2.got), len(p3.got))
	}
	if b.Stats().Forwarded != 1 {
		t.Fatal("forward not counted")
	}
}

func TestBroadcastFloods(t *testing.T) {
	eng, b, _, p2, p3 := newBridge()
	b.Input(p2, frame(netpkt.Broadcast, macB, "arp"))
	eng.Run()
	if len(p3.got) != 1 {
		t.Fatal("broadcast not flooded")
	}
	_ = p2
}

func TestStationMove(t *testing.T) {
	eng, b, p1, p2, p3 := newBridge()
	b.Input(p2, frame(macA, macB, "1"))
	eng.Run()
	// B moves to p3 (guest migrated / vif reattached).
	b.Input(p3, frame(macA, macB, "2"))
	eng.Run()
	p1.got, p2.got, p3.got = nil, nil, nil
	b.Input(p1, frame(macB, macA, "3"))
	eng.Run()
	if len(p3.got) != 1 || len(p2.got) != 0 {
		t.Fatal("bridge did not relearn moved station")
	}
}

func TestHairpinDropped(t *testing.T) {
	eng, b, p1, p2, _ := newBridge()
	b.Input(p2, frame(macA, macB, "x")) // learn B@p2
	b.Input(p1, frame(macB, macC, "y")) // learn C@p1... and forward to p2
	eng.Run()
	p2.got = nil
	// Destination learned behind the same port it arrives on: drop.
	b.Input(p2, frame(macB, macC, "z"))
	eng.Run()
	if len(p2.got) != 0 {
		t.Fatal("hairpin frame delivered")
	}
}

func TestRemovePortFlushesFDB(t *testing.T) {
	eng, b, p1, p2, p3 := newBridge()
	b.Input(p2, frame(macA, macB, "x"))
	eng.Run()
	b.RemovePort(p2)
	if b.Lookup(macB) != nil {
		t.Fatal("FDB entry survived port removal")
	}
	p1.got, p3.got = nil, nil
	b.Input(p1, frame(macB, macA, "y"))
	eng.Run()
	if len(p3.got) != 1 {
		t.Fatal("frame to departed station not flooded to remaining ports")
	}
	if len(b.Ports()) != 2 {
		t.Fatalf("port count = %d, want 2", len(b.Ports()))
	}
}

func TestDoubleAddPanics(t *testing.T) {
	_, b, p1, _, _ := newBridge()
	defer func() {
		if recover() == nil {
			t.Fatal("double AddPort did not panic")
		}
	}()
	b.AddPort(p1)
}

func TestRuntFrameDropped(t *testing.T) {
	eng, b, p1, _, _ := newBridge()
	runt := testPool.GetLen(3)
	copy(runt.Extend(3), []byte{1, 2, 3})
	b.Input(p1, runt)
	eng.Run()
	if b.Stats().Dropped != 1 {
		t.Fatal("runt frame not dropped")
	}
}

func TestForwardingChargesCPU(t *testing.T) {
	eng := sim.NewEngine()
	cpus := sim.NewCPUPool(eng, "dd", 1)
	b := New(eng, cpus, "xenbr0")
	p1, p2 := &fakePort{name: "a"}, &fakePort{name: "b"}
	b.AddPort(p1)
	b.AddPort(p2)
	b.Input(p1, frame(macB, macA, "x"))
	eng.Run()
	if cpus.CPU(0).BusyTotal() != b.PerFrameCost {
		t.Fatalf("bridge charged %v, want %v", cpus.CPU(0).BusyTotal(), b.PerFrameCost)
	}
}

// TestFDBSeenIndependentOfCarriage: frames reach a lane either one event
// each, or replayed from a carrier event that fires at the first frame's
// arrival and runs the rest ahead of their stamps. An entry's last-seen
// time — what aging later compares against — must be the frame's own
// arrival either way, and delivery times with it.
func TestFDBSeenIndependentOfCarriage(t *testing.T) {
	const n = 8
	arrival := func(i int) sim.Time { return sim.Time(10+3*i) * sim.Microsecond }
	src := func(i int) netpkt.MAC { return netpkt.MAC{2, 0, 0, 0, 1, byte(i)} }

	run := func(hauls [][]int) (seen [n]sim.Time, delivered int) {
		eng, b, p1, p2, _ := newBridge()
		b.Input(p1, frame(netpkt.Broadcast, macA, "hello")) // macA lives behind p1
		eng.Run()
		p1.got = nil
		lane := b.NewLane(sim.NewCPUPool(eng, "fwd", 1).CPU(0))
		for _, haul := range hauls {
			haul := haul
			eng.Schedule(arrival(haul[0]), func() {
				for _, i := range haul {
					lane.InputAt(p2, frame(macA, src(i), "x"), arrival(i))
				}
			})
		}
		eng.Run()
		for i := range seen {
			e := b.fdb.Lookup(b.macHash(src(i)), src(i))
			if e == nil {
				t.Fatalf("source %d was never learned", i)
			}
			seen[i] = e.Seen
		}
		return seen, len(p1.got)
	}

	var oneHaul []int
	var haulsOfOne [][]int
	for i := 0; i < n; i++ {
		oneHaul = append(oneHaul, i)
		haulsOfOne = append(haulsOfOne, []int{i})
	}
	together, d1 := run([][]int{oneHaul})
	apart, d2 := run(haulsOfOne)
	if d1 != n || d2 != n {
		t.Fatalf("delivered %d and %d of %d frames", d1, d2, n)
	}
	if together != apart {
		t.Fatalf("seen times depend on carriage:\none haul of %d:  %v\n%d hauls of one: %v", n, together, n, apart)
	}
	for i, at := range together {
		if at != arrival(i) {
			t.Fatalf("source %d seen at %v, arrived at %v", i, at, arrival(i))
		}
	}
}

// TestLearnAgesIdleEntries pins the FDB aging the bridge runs itself: an
// entry idle longer than fdbMaxIdle is gone after the next new learn, and
// aging arms no timer, so an idle bridge's Run still returns.
func TestLearnAgesIdleEntries(t *testing.T) {
	eng, b, p1, p2, _ := newBridge()
	b.Input(p1, frame(macB, macA, "a"))
	eng.Run()
	eng.RunUntil(fdbMaxIdle + sim.Second)
	if b.Lookup(macA) == nil {
		t.Fatal("entry aged out with no new learn")
	}

	b.Input(p2, frame(macA, macB, "b"))
	eng.Run()
	if b.Lookup(macA) != nil {
		t.Fatal("entry idle past fdbMaxIdle survived the next new learn")
	}
	if b.Lookup(macB) != p2 || b.Stats().Aged != 1 {
		t.Fatalf("Lookup(B)=%v Aged=%d, want vif1.0 and 1", b.Lookup(macB), b.Stats().Aged)
	}
	if eng.Pending() != 0 {
		t.Fatalf("aging left %d events pending", eng.Pending())
	}
}
