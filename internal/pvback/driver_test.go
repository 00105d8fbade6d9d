package pvback

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// fakeChannel is a ring publication that only knows its queue count.
type fakeChannel int

func (c fakeChannel) NumQueues() int { return int(c) }

type fakeInst struct{ p Pairing }

// fakeClass records what the skeleton asks of a device class.
type fakeClass struct {
	connectErr error
	advertised []string
	detached   []*fakeInst
}

func (c *fakeClass) Type() string   { return xenstore.DevVif }
func (c *fakeClass) MaxQueues() int { return 4 }
func (c *fakeClass) Advertise(backPath string) error {
	c.advertised = append(c.advertised, backPath)
	return nil
}
func (c *fakeClass) Connect(p Pairing) (*fakeInst, error) {
	if c.connectErr != nil {
		return nil, c.connectErr
	}
	return &fakeInst{p: p}, nil
}
func (c *fakeClass) Detach(inst *fakeInst) { c.detached = append(c.detached, inst) }

type driverRig struct {
	eng   *sim.Engine
	bus   *xenbus.Bus
	reg   *Registry
	dd    *xen.Domain
	class *fakeClass
	drv   *Driver[*fakeInst]
}

func newDriverRig() *driverRig {
	r := &driverRig{eng: sim.NewEngine(), reg: NewRegistry(), class: &fakeClass{}}
	hv := xen.New(r.eng)
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 16 << 20, Privileged: true})
	r.dd = hv.CreateDomain(xen.DomainConfig{Name: "dd", VCPUs: 2, MemBytes: 16 << 20})
	r.bus = xenbus.New(xenstore.New(r.eng))
	r.drv = NewDriver[*fakeInst](r.eng, r.dd, r.bus, r.reg, r.class, 2*sim.Microsecond)
	return r
}

// plug has the toolstack create device devid of guest dom and returns its
// two xenstore directories.
func (r *driverRig) plug(dom xenbus.DomID, devid int) (frontPath, backPath string) {
	return r.bus.AddDevice(xenbus.DeviceSpec{
		Type: xenstore.DevVif, FrontDom: dom, BackDom: xenbus.DomID(r.dd.ID), DevID: devid,
	})
}

// publish plays the frontend's half of the handshake: rings in the
// registry, one event channel per queue in the store, state Initialised.
func (r *driverRig) publish(t *testing.T, frontPath string, dom xenbus.DomID, devid, storeQueues, ringQueues int) {
	t.Helper()
	st := r.bus.Store()
	r.reg.Publish(xen.DomID(dom), devid, fakeChannel(ringQueues))
	if storeQueues == 1 {
		st.Write(frontPath+"/"+xenstore.KeyEventChannel, "7")
	} else {
		r.bus.WriteNumQueues(frontPath, storeQueues)
		for q := 0; q < storeQueues; q++ {
			st.Write(xenbus.QueuePath(frontPath, q)+"/"+xenstore.KeyEventChannel, strconv.Itoa(7+q))
		}
	}
	if err := r.bus.SwitchState(frontPath, xenbus.StateInitialised); err != nil {
		t.Fatal(err)
	}
}

func (r *driverRig) settle(t *testing.T) {
	t.Helper()
	if !r.eng.RunCapped(100000) {
		t.Fatal("handshake livelocked")
	}
}

// TestUnreadyFrontendWatchedOnce: every write under the backend subtree
// rescans a frontend that is still Initialising, and all those scans share
// one retry watch; once the frontend is ready that watch's wake pairs it.
func TestUnreadyFrontendWatchedOnce(t *testing.T) {
	r := newDriverRig()
	frontPath, backPath := r.plug(5, 0)
	r.settle(t)
	if got := r.bus.State(backPath); got != xenbus.StateInitWait {
		t.Fatalf("backend state %v after the first scan, want InitWait", got)
	}
	if len(r.class.advertised) != 1 || r.class.advertised[0] != backPath {
		t.Fatalf("advertised %v, want [%s]", r.class.advertised, backPath)
	}
	if got, _ := r.bus.Store().ReadInt(backPath + "/" + xenstore.KeyMultiQueueMaxQueues); got != 2 {
		t.Fatalf("advertised %d queues, want 2 (the domain's vCPUs, under the class's cap of 4)", got)
	}
	watches := r.bus.Store().Watches()
	for i := 0; i < 5; i++ {
		r.bus.Store().Write(backPath+"/hotplug-status", strconv.Itoa(i)) // wakes the invoker
		r.settle(t)
	}
	if r.drv.Watched() != 1 || r.bus.Store().Watches() != watches {
		t.Fatalf("after 5 rescans: %d retry entries, %d live watches (was %d)",
			r.drv.Watched(), r.bus.Store().Watches(), watches)
	}
	if r.drv.Invocations() != 0 || len(r.class.advertised) != 1 {
		t.Fatalf("%d pairing attempts, %d advertisements for an unready frontend",
			r.drv.Invocations(), len(r.class.advertised))
	}

	r.publish(t, frontPath, 5, 0, 1, 1)
	r.settle(t)
	insts := r.drv.Instances()
	if len(insts) != 1 || r.bus.State(backPath) != xenbus.StateConnected {
		t.Fatalf("%d instances, backend %v after the frontend became ready", len(insts), r.bus.State(backPath))
	}
	if p := insts[0].p; p.FrontDom != 5 || p.DevID != 0 || p.FrontPath != frontPath ||
		p.BackPath != backPath || len(p.Ports) != 1 || p.Ports[0] != 7 || p.Lane != nil {
		t.Fatalf("class was handed %+v", p)
	}
}

// TestQueueCountDisagreementIsRetried: a frontend whose store keys and
// published rings disagree on the queue count is not connected, and not
// closed either — the next wake finds it consistent and pairs it.
func TestQueueCountDisagreementIsRetried(t *testing.T) {
	r := newDriverRig()
	frontPath, backPath := r.plug(5, 0)
	r.settle(t)
	r.publish(t, frontPath, 5, 0, 2, 1)
	r.settle(t)
	if len(r.drv.Instances()) != 0 || r.bus.State(backPath) != xenbus.StateInitWait {
		t.Fatalf("%d instances, backend %v with 2 queues in the store and 1 ring set",
			len(r.drv.Instances()), r.bus.State(backPath))
	}
	if r.drv.Invocations() == 0 {
		t.Fatal("a ready frontend was never attempted")
	}
	r.reg.Publish(5, 0, fakeChannel(2))
	r.bus.Store().Write(backPath+"/hotplug-status", "connected")
	r.settle(t)
	insts := r.drv.Instances()
	if len(insts) != 1 || len(insts[0].p.Ports) != 2 || insts[0].p.Ports[1] != 8 {
		t.Fatalf("instances after the rings caught up: %+v", insts)
	}
}

// TestConnectErrorClosesDevice: a frontend the class cannot serve ends in
// Closed and is not scanned into an instance later.
func TestConnectErrorClosesDevice(t *testing.T) {
	r := newDriverRig()
	r.class.connectErr = errors.New("no such window")
	frontPath, backPath := r.plug(5, 0)
	r.settle(t)
	r.publish(t, frontPath, 5, 0, 1, 1)
	r.settle(t)
	if got := r.bus.State(backPath); got != xenbus.StateClosed {
		t.Fatalf("backend state %v after a connect error, want Closed", got)
	}
	r.class.connectErr = nil
	r.bus.Store().Write(backPath+"/hotplug-status", "retry")
	r.settle(t)
	if len(r.drv.Instances()) != 0 {
		t.Fatal("a closed device was paired")
	}
}

// TestRemovalReleasesEverything: when frontends leave, the driver gives back
// both watches it held on each, the retry entry and the ring publication;
// Shutdown then tears the rest down in attach order. The two same-instant
// departures rely on the same-instant FIFO contract stated at the teardown
// watch in Driver.tryPair.
func TestRemovalReleasesEverything(t *testing.T) {
	r := newDriverRig()
	st := r.bus.Store()
	idle := st.Watches()
	const n = 5
	fronts := make([]string, n)
	for i := range fronts {
		fronts[i], _ = r.plug(xenbus.DomID(10+i), 0)
		r.settle(t)
		r.publish(t, fronts[i], xenbus.DomID(10+i), 0, 1, 1)
		r.settle(t)
	}
	if len(r.drv.Instances()) != n || r.drv.Watched() != n || r.reg.Len() != n || st.Watches() != idle+2*n {
		t.Fatalf("%d instances, %d retry entries, %d publications, %d watches beyond idle",
			len(r.drv.Instances()), r.drv.Watched(), r.reg.Len(), st.Watches()-idle)
	}

	// Guests 11 and 13 close their devices.
	for _, i := range []int{1, 3} {
		if err := r.bus.SwitchState(fronts[i], xenbus.StateClosed); err != nil {
			t.Fatal(err)
		}
	}
	r.settle(t)
	if got := fmt.Sprint(doms(r.class.detached)); got != "[11 13]" {
		t.Fatalf("detached %s, want [11 13]", got)
	}
	if len(r.drv.Instances()) != n-2 || r.drv.Watched() != n-2 || r.reg.Len() != n-2 || st.Watches() != idle+2*(n-2) {
		t.Fatalf("after 2 departures: %d instances, %d retry entries, %d publications, %d watches beyond idle",
			len(r.drv.Instances()), r.drv.Watched(), r.reg.Len(), st.Watches()-idle)
	}
	// A later write under a departed frontend wakes nobody.
	scans := r.dd.CPUs.CPU(0).BusyTotal()
	st.Write(fronts[1]+"/"+xenstore.KeyState, "6")
	r.settle(t)
	if got := r.dd.CPUs.CPU(0).BusyTotal(); got != scans {
		t.Fatalf("a write under a departed frontend cost the invoker %v", got-scans)
	}

	r.drv.Shutdown()
	if got := fmt.Sprint(doms(r.class.detached)); got != "[11 13 10 12 14]" {
		t.Fatalf("detached %s, want the departures then attach order [11 13 10 12 14]", got)
	}
	if len(r.drv.Instances()) != 0 || r.drv.Watched() != 0 || r.reg.Len() != 0 || st.Watches() != idle {
		t.Fatalf("after Shutdown: %d instances, %d retry entries, %d publications, %d watches beyond idle",
			len(r.drv.Instances()), r.drv.Watched(), r.reg.Len(), st.Watches()-idle)
	}
	for i := range fronts {
		bp := xenbus.BackendPath(xenbus.DomID(r.dd.ID), xenstore.DevVif, xenbus.DomID(10+i), 0)
		if got := r.bus.State(bp); got != xenbus.StateClosed {
			t.Fatalf("backend of guest %d left in %v", 10+i, got)
		}
	}
}

func doms(insts []*fakeInst) []xen.DomID {
	out := make([]xen.DomID, len(insts))
	for i, in := range insts {
		out[i] = in.p.FrontDom
	}
	return out
}

// TestFleetLaneAssignment: in fleet mode single-queue frontends go to the
// lane the toolstack hinted, else round-robin; a multi-queue frontend gets
// no lane.
func TestFleetLaneAssignment(t *testing.T) {
	r := newDriverRig()
	lanes := make([]*Lane, 2)
	for i := range lanes {
		lanes[i] = NewLane(i, r.dd, r.eng, r.dd.CPUs.CPU(0), sim.Microsecond, 1, nil)
	}
	r.drv.SetFleet(lanes)
	connect := func(dom xenbus.DomID, hint string, queues int) *Lane {
		t.Helper()
		spec := xenbus.DeviceSpec{Type: xenstore.DevVif, FrontDom: dom, BackDom: xenbus.DomID(r.dd.ID)}
		if hint != "" {
			spec.BackExtra = map[string]string{xenstore.KeyTenantLane: hint}
		}
		frontPath, _ := r.bus.AddDevice(spec)
		r.settle(t)
		r.publish(t, frontPath, dom, 0, queues, queues)
		r.settle(t)
		insts := r.drv.Instances()
		return insts[len(insts)-1].p.Lane
	}
	if got := connect(20, "", 1); got != lanes[0] {
		t.Fatalf("first unhinted tenant on lane %v, want lane 0", got)
	}
	if got := connect(21, "3", 1); got != lanes[1] {
		t.Fatalf("tenant hinted to lane 3 of 2 on %v, want lane 1", got)
	}
	if got := connect(22, "", 1); got != lanes[1] {
		t.Fatalf("second unhinted tenant on %v, want lane 1 (the hint must not move the cursor)", got)
	}
	if got := connect(23, "", 2); got != nil {
		t.Fatalf("multi-queue frontend assigned lane %d", got.ID())
	}
}

func TestRegistryPublishClaimDrop(t *testing.T) {
	r := NewRegistry()
	ch := fakeChannel(1)
	r.Publish(3, 0, ch)
	got, ok := r.Claim(3, 0)
	if !ok || got != ch {
		t.Fatalf("claim = %v, %v", got, ok)
	}
	if _, ok := r.Claim(3, 1); ok {
		t.Fatal("claim of unpublished device succeeded")
	}
	if _, ok := r.Claim(4, 0); ok {
		t.Fatal("claim of wrong domain succeeded")
	}
	r.Drop(3, 0)
	if _, ok := r.Claim(3, 0); ok {
		t.Fatal("claim after drop succeeded")
	}
}

func TestRegistryDistinctKeys(t *testing.T) {
	r := NewRegistry()
	a, b := fakeChannel(1), fakeChannel(2)
	r.Publish(1, 0, a)
	r.Publish(1, 1, b)
	r.Publish(2, 0, b)
	if got, _ := r.Claim(1, 0); got != a {
		t.Fatal("key collision between devices")
	}
	if got, _ := r.Claim(2, 0); got != b {
		t.Fatal("key collision between domains")
	}
}
