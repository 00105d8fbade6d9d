package pvfront

import (
	"strconv"
	"testing"
	"unsafe"

	"kite/internal/pvback"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// fakeChannel is a ring publication that only knows its queue count.
type fakeChannel int

func (c fakeChannel) NumQueues() int { return int(c) }

// fakeClass records what the skeleton asks of a device class.
type fakeClass struct {
	dev     *Device
	rings   []int      // queue count of every ring set built
	ports   []xen.Port // every queue port handed to Queue
	connect int
	lost    int
	release []bool // the live flag of every Release
	// holding makes Release keep everything while the backend lives.
	holding bool
}

func (c *fakeClass) Rings(_ string, n int) pvback.Channel {
	c.rings = append(c.rings, n)
	return fakeChannel(n)
}
func (c *fakeClass) Queue(_ int, port xen.Port) (func(), *sim.CPU) {
	c.ports = append(c.ports, port)
	return func() {}, nil
}
func (c *fakeClass) RingRefs(dir string, i int) {
	c.dev.Bus.Store().Write(dir+"/"+xenstore.KeyRingRef, strconv.Itoa(100+i))
}
func (c *fakeClass) Keys(frontPath string) {
	c.dev.Bus.WriteFeature(frontPath, xenstore.KeyFeaturePersistent, true)
}
func (c *fakeClass) Connect() { c.connect++ }
func (c *fakeClass) Lost()    { c.lost++ }
func (c *fakeClass) Release(live bool) bool {
	c.release = append(c.release, live)
	return !(live && c.holding)
}

type rig struct {
	t     *testing.T
	eng   *sim.Engine
	bus   *xenbus.Bus
	reg   *pvback.Registry
	guest *xen.Domain
	back  *xen.Domain
	class *fakeClass
	dev   *Device
}

// newRig creates a frontend asking for want queues of a class capped at
// classMax, on a device the toolstack has just added.
func newRig(t *testing.T, want, classMax int) *rig {
	t.Helper()
	r := &rig{t: t, eng: sim.NewEngine(), reg: pvback.NewRegistry(), class: &fakeClass{}}
	hv := xen.New(r.eng)
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 16 << 20, Privileged: true})
	r.back = hv.CreateDomain(xen.DomainConfig{Name: "back", VCPUs: 1, MemBytes: 16 << 20})
	r.guest = hv.CreateDomain(xen.DomainConfig{Name: "guest", VCPUs: 1, MemBytes: 16 << 20})
	r.bus = xenbus.New(xenstore.New(r.eng))
	r.plug()
	r.dev = &Device{}
	r.class.dev = r.dev
	r.dev.Start(Config{Dom: r.guest, Bus: r.bus, Registry: r.reg, DevID: 7, BackDom: r.back.ID, Queues: want},
		xenstore.DevVbd, classMax, r.class)
	r.eng.Run()
	return r
}

// plug has the toolstack (re)create the device: both ends Initialising.
func (r *rig) plug() {
	r.bus.AddDevice(xenbus.DeviceSpec{
		Type: xenstore.DevVbd, FrontDom: xenbus.DomID(r.guest.ID), BackDom: xenbus.DomID(r.back.ID), DevID: 7,
	})
}

// backend moves the backend end to s, advertising queues first when it
// goes InitWait (0: no advertisement, a pre-multi-queue backend).
func (r *rig) backend(s xenbus.State, queues int) {
	r.t.Helper()
	if s == xenbus.StateInitWait && queues > 0 {
		r.bus.Store().Write(r.dev.backPath+"/"+xenstore.KeyMultiQueueMaxQueues, strconv.Itoa(queues))
	}
	if err := r.bus.SwitchState(r.dev.backPath, s); err != nil {
		r.t.Fatal(err)
	}
	r.eng.Run()
}

func (r *rig) connect(queues int) {
	r.t.Helper()
	r.backend(xenbus.StateInitWait, queues)
	r.backend(xenbus.StateConnected, 0)
	if !r.dev.Ready() {
		r.t.Fatal("device not ready after the backend connected")
	}
}

// open reports whether the guest still has port p.
func (r *rig) open(p xen.Port) bool { return r.guest.SetHandler(p, func() {}) == nil }

// TestQueueCountClamp: the negotiated count is the request, clamped to
// [1, class cap], then to the backend's advertisement (absent means 1).
func TestQueueCountClamp(t *testing.T) {
	for _, tc := range []struct{ want, classMax, advertised, got int }{
		{0, 8, 4, 1},
		{-3, 8, 4, 1},
		{4, 8, 0, 1},
		{4, 8, 8, 4},
		{8, 3, 8, 3},
		{8, 8, 2, 2},
		{6, 4, 5, 4},
	} {
		r := newRig(t, tc.want, tc.classMax)
		r.backend(xenbus.StateInitWait, tc.advertised)
		if len(r.class.rings) != 1 || r.class.rings[0] != tc.got || len(r.class.ports) != tc.got {
			t.Fatalf("%+v: built rings %v with %d ports", tc, r.class.rings, len(r.class.ports))
		}
		if ch, ok := r.reg.Claim(r.guest.ID, 7); !ok || ch.NumQueues() != tc.got {
			t.Fatalf("%+v: published %v", tc, ch)
		}
		if s := r.bus.State(r.dev.FrontPath()); s != xenbus.StateInitialised {
			t.Fatalf("%+v: frontend %v after InitWait", tc, s)
		}
	}
}

// TestFlatAndPerQueueKeys: one queue publishes the legacy flat keys and no
// queue count; more publish multi-queue-num-queues and queue-N/
// directories, each with its own ring refs and event channel.
func TestFlatAndPerQueueKeys(t *testing.T) {
	for _, nq := range []int{1, 3} {
		r := newRig(t, nq, 8)
		r.backend(xenbus.StateInitWait, nq)
		st, front := r.bus.Store(), r.dev.FrontPath()
		_, flat := st.Read(front + "/" + xenstore.KeyEventChannel)
		_, counted := st.Read(front + "/" + xenstore.KeyMultiQueueNumQueues)
		if flat != (nq == 1) || counted != (nq > 1) {
			t.Fatalf("%d queues: flat event-channel %v, multi-queue-num-queues %v", nq, flat, counted)
		}
		if nq > 1 && r.bus.ReadNumQueues(front, xenstore.KeyMultiQueueNumQueues) != nq {
			t.Fatalf("%d queues: published count %d", nq, r.bus.ReadNumQueues(front, xenstore.KeyMultiQueueNumQueues))
		}
		for i := 0; i < nq; i++ {
			dir := front
			if nq > 1 {
				dir = xenbus.QueuePath(front, i)
			}
			port, _ := st.ReadInt(dir + "/" + xenstore.KeyEventChannel)
			ref, _ := st.ReadInt(dir + "/" + xenstore.KeyRingRef)
			if xen.Port(port) != r.class.ports[i] || ref != int64(100+i) {
				t.Fatalf("%d queues, queue %d: event-channel %d (port %d), ring-ref %d", nq, i, port, r.class.ports[i], ref)
			}
		}
		if !r.bus.ReadFeature(front, xenstore.KeyFeaturePersistent) {
			t.Fatalf("%d queues: the class keys were not written", nq)
		}
	}
}

// TestCloseCancelsWatchAndGoesClosed: Close quiesces the device once,
// announces Closed and cancels the backend watch; a class still holding
// grants under a live backend keeps its ports and the watch until the
// backend reaches Closed.
func TestCloseCancelsWatchAndGoesClosed(t *testing.T) {
	for _, holding := range []bool{false, true} {
		r := newRig(t, 1, 8)
		r.class.holding = holding
		r.connect(1)
		st := r.bus.Store()
		watches, port := st.Watches(), r.class.ports[0]
		r.dev.Close()
		r.eng.Run()
		if r.dev.Ready() || r.bus.State(r.dev.FrontPath()) != xenbus.StateClosed || r.class.lost != 1 {
			t.Fatalf("holding=%v: after Close ready=%v, frontend %v, lost %d", holding, r.dev.Ready(),
				r.bus.State(r.dev.FrontPath()), r.class.lost)
		}
		if got := st.Watches() == watches; got != holding || r.open(port) != holding {
			t.Fatalf("holding=%v: watch kept %v, port open %v", holding, got, r.open(port))
		}
		r.backend(xenbus.StateClosed, 0)
		if st.Watches() != watches-1 || r.open(port) || r.class.lost != 1 {
			t.Fatalf("holding=%v: after the backend closed: %d watches (%d), port open %v, lost %d",
				holding, st.Watches(), watches, r.open(port), r.class.lost)
		}
		want := []bool{true}
		if holding {
			want = []bool{true, false}
		}
		if len(r.class.release) != len(want) || r.class.release[0] != want[0] || r.class.release[len(want)-1] != want[len(want)-1] {
			t.Fatalf("holding=%v: Release calls %v, want %v", holding, r.class.release, want)
		}
	}
}

// TestBackendLossAndRestart: a backend going Closing then Closed costs the
// device one quiesce and one release, which closes its ports; once the
// toolstack re-adds the device, the backend coming back at InitWait gets a
// fresh handshake — new queues on new ports — and the next loss quiesces
// once more.
func TestBackendLossAndRestart(t *testing.T) {
	r := newRig(t, 2, 8)
	r.connect(2)
	old := append([]xen.Port(nil), r.class.ports...)
	r.backend(xenbus.StateClosing, 0)
	r.backend(xenbus.StateClosed, 0)
	if r.dev.Ready() || r.class.lost != 1 || len(r.class.release) != 1 || r.class.release[0] {
		t.Fatalf("after the loss: ready=%v, lost %d, releases %v", r.dev.Ready(), r.class.lost, r.class.release)
	}
	for _, p := range old {
		if r.open(p) {
			t.Fatalf("port %d still open after the release", p)
		}
	}

	r.plug()
	r.eng.Run()
	r.connect(2)
	if len(r.class.rings) != 2 || r.class.connect != 2 || len(r.class.ports) != 4 {
		t.Fatalf("after the restart: rings %v, %d connects, ports %v", r.class.rings, r.class.connect, r.class.ports)
	}
	for _, p := range r.class.ports[2:] {
		if p == old[0] || p == old[1] || !r.open(p) {
			t.Fatalf("restart reused or lost port %d (old %v)", p, old)
		}
	}
	if s := r.bus.State(r.dev.FrontPath()); s != xenbus.StateConnected {
		t.Fatalf("frontend %v after the second handshake", s)
	}
	r.backend(xenbus.StateClosing, 0)
	r.backend(xenbus.StateClosing, 0)
	if r.class.lost != 2 {
		t.Fatalf("%d quiesces after two losses", r.class.lost)
	}
}

// TestReadyFirst: ready is the device's first byte, so a class can keep
// its send path in the same cache line (netfront.TestSendPathOneLine).
func TestReadyFirst(t *testing.T) {
	if off := unsafe.Offsetof(Device{}.ready); off != 0 {
		t.Fatalf("ready at offset %d, want 0", off)
	}
}
