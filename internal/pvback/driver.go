package pvback

import (
	"fmt"
	"slices"
	"strconv"

	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// scanCost is the CPU cost of one backend-invocation pass (xenstore reads
// are charged separately via their latency).
const scanCost = 5 * sim.Microsecond

// Channel is what a backend obtains by mapping a frontend's shared ring
// pages: the device class knows the concrete ring set behind it.
type Channel interface {
	NumQueues() int
}

// Registry stands in for the grant-mapping of ring pages: the frontend
// publishes its rings under (frontend domain, device id); the backend
// claims them after reading the ring references from xenstore and paying
// the map hypercalls, and drops the publication when the device goes.
type Registry struct {
	channels map[uint64]Channel
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{channels: make(map[uint64]Channel)} }

func regKey(dom xen.DomID, devid int) uint64 { return uint64(dom)<<32 | uint64(uint32(devid)) }

// Publish registers a frontend's rings.
func (r *Registry) Publish(dom xen.DomID, devid int, ch Channel) {
	r.channels[regKey(dom, devid)] = ch
}

// Claim returns the rings published for (dom, devid), if any.
func (r *Registry) Claim(dom xen.DomID, devid int) (Channel, bool) {
	ch, ok := r.channels[regKey(dom, devid)]
	return ch, ok
}

// Drop removes a publication (device teardown).
func (r *Registry) Drop(dom xen.DomID, devid int) { delete(r.channels, regKey(dom, devid)) }

// Len returns the number of live publications.
func (r *Registry) Len() int { return len(r.channels) }

// Pairing is what the invoker has established about one frontend by the
// time it asks the class for an instance.
type Pairing struct {
	BackPath, FrontPath string
	FrontDom            xen.DomID
	DevID               int
	Channel             Channel    // the frontend's rings, as many queues as Ports
	Ports               []xen.Port // the frontend's event channel per queue
	// Lane is the fleet lane the instance is to be served by; nil for
	// dedicated workers (no fleet mode, or a multi-queue frontend).
	Lane *Lane
}

// Class is what a device class supplies to the backend-invocation Driver:
// everything else about pairing a frontend is the same for vif and vbd.
type Class[I any] interface {
	// Type is the xenstore device type served (xenstore.DevVif, DevVbd).
	Type() string
	// MaxQueues caps the advertised queue count, like the real backends'
	// max_queues module parameter.
	MaxQueues() int
	// Advertise writes the class's feature keys under a backend directory
	// still in Initialising. An error closes the device.
	Advertise(backPath string) error
	// Connect builds the instance serving a ready frontend. An error closes
	// the device.
	Connect(p Pairing) (I, error)
	// Detach tears an instance down (its frontend went away, or the driver
	// domain is exiting).
	Detach(inst I)
}

// attached is the driver's record of one live instance.
type attached[I any] struct {
	Pairing
	inst I
	// teardown watches the frontend's state for its departure.
	teardown *xenstore.Watch
}

// Driver is a driver domain's backend driver for one device class: it
// watches the domain's backend/<type> subtree and a dedicated thread pairs
// every waiting frontend with a fresh instance (§4.1 backend invocation).
// This is the single-process replacement for Linux's `xl devd` + hotplug
// scripts. Its attach-order list of pairings is the driver domain's one
// record of which frontends are attached and on which lane.
type Driver[I any] struct {
	dom   *xen.Domain
	bus   *xenbus.Bus
	reg   *Registry
	class Class[I]
	eng   *sim.Engine
	wake  sim.Time
	root  string // the watched backend subtree

	lanes    []*Lane // fleet mode: shared DRR workers
	laneNext int     // round-robin lane assignment cursor
	thread   *sim.Task

	byPath map[string]*attached[I] // by backend path
	order  []*attached[I]          // live instances in attach order (deterministic walks)
	// watched holds, by frontend path, the watch that retries a frontend
	// found unready: registered once however often the frontend is scanned,
	// cancelled when its instance goes.
	watched map[string]*xenstore.Watch

	invocations uint64
}

// NewDriver starts the backend driver of class in dom: the invoker thread
// runs on the domain's first vCPU at the given wake latency.
func NewDriver[I any](eng *sim.Engine, dom *xen.Domain, bus *xenbus.Bus,
	reg *Registry, class Class[I], wake sim.Time) *Driver[I] {

	d := &Driver[I]{
		dom: dom, bus: bus, reg: reg, class: class, eng: eng, wake: wake,
		root:    xenbus.BackendRoot(xenbus.DomID(dom.ID), class.Type()),
		byPath:  make(map[string]*attached[I]),
		watched: make(map[string]*xenstore.Watch),
	}
	d.pinInvoker(0)
	bus.Store().Watch(d.root, class.Type(), func(string, string) { d.thread.Wake() })
	return d
}

func (d *Driver[I]) pinInvoker(cpu int) {
	d.thread = sim.NewTask(d.eng, d.dom.CPUs.CPU(cpu), d.wake, d.scan)
}

// MoveInvoker moves the backend-invocation thread to the domain's last
// vCPU, leaving the vCPUs before it to pinned workers. Must be called before
// any frontend connects.
func (d *Driver[I]) MoveInvoker() { d.pinInvoker(d.dom.CPUs.Len() - 1) }

// SetFleet switches the driver into fleet mode: connecting single-queue
// frontends are assigned to the given lanes (by the toolstack's
// KeyTenantLane hint, else round-robin) instead of getting dedicated
// workers, and the invoker moves out of the lanes' way (MoveInvoker). Must
// be called before any frontend connects.
func (d *Driver[I]) SetFleet(lanes []*Lane) {
	d.MoveInvoker()
	d.lanes = lanes
}

// Lanes returns the fleet service lanes (nil in dedicated-worker mode).
func (d *Driver[I]) Lanes() []*Lane { return d.lanes }

// Instances returns the live instances in attach order.
func (d *Driver[I]) Instances() []I {
	out := make([]I, len(d.order))
	for i, a := range d.order {
		out[i] = a.inst
	}
	return out
}

// Invocations returns how many pairing attempts the thread performed.
func (d *Driver[I]) Invocations() uint64 { return d.invocations }

// Watched returns how many frontends the driver holds a retry watch on.
func (d *Driver[I]) Watched() int { return len(d.watched) }

// scan is the backend-invocation thread body: walk the backend subtree and
// pair any unpaired frontend.
func (d *Driver[I]) scan() {
	d.dom.CPUs.Charge(scanCost)
	st := d.bus.Store()
	for _, frontStr := range st.List(d.root) {
		var frontDom int
		if _, err := fmt.Sscanf(frontStr, "%d", &frontDom); err != nil {
			continue
		}
		for _, devStr := range st.List(d.root + "/" + frontStr) {
			var devid int
			if _, err := fmt.Sscanf(devStr, "%d", &devid); err != nil {
				continue
			}
			backPath := d.root + "/" + frontStr + "/" + devStr
			if d.byPath[backPath] == nil {
				d.tryPair(backPath, xen.DomID(frontDom), devid)
			}
		}
	}
}

func (d *Driver[I]) tryPair(backPath string, frontDom xen.DomID, devid int) {
	st := d.bus.Store()
	frontPath, ok := st.Read(backPath + "/" + xenstore.KeyFrontend)
	if !ok {
		return
	}
	switch d.bus.State(backPath) {
	case xenbus.StateClosed, xenbus.StateClosing:
		return
	case xenbus.StateInitialising:
		// Announce ourselves: the class's features, then how many queues we
		// can serve — one per driver-domain vCPU, up to the class's cap.
		if err := d.class.Advertise(backPath); err != nil {
			_ = d.bus.SwitchState(backPath, xenbus.StateClosed)
			return
		}
		st.Write(backPath+"/"+xenstore.KeyMultiQueueMaxQueues,
			strconv.Itoa(min(d.dom.CPUs.Len(), d.class.MaxQueues())))
		_ = d.bus.SwitchState(backPath, xenbus.StateInitWait)
	}

	fs := d.bus.State(frontPath)
	if fs != xenbus.StateInitialised && fs != xenbus.StateConnected {
		// Frontend not ready: watch it (once) and retry on transitions.
		if d.watched[frontPath] == nil {
			d.watched[frontPath] = d.bus.OnStateChange(frontPath, func(xenbus.State) { d.thread.Wake() })
		}
		return
	}

	d.invocations++
	// Multi-queue frontends publish per-queue event channels under
	// queue-N/; single-queue ones keep the legacy flat key.
	nq := d.bus.ReadNumQueues(frontPath, xenstore.KeyMultiQueueNumQueues)
	ports := make([]xen.Port, nq)
	for i := range ports {
		dir := frontPath
		if nq > 1 {
			dir = xenbus.QueuePath(frontPath, i)
		}
		port, ok := st.ReadInt(dir + "/" + xenstore.KeyEventChannel)
		if !ok {
			return
		}
		ports[i] = xen.Port(port)
	}
	ch, ok := d.reg.Claim(frontDom, devid)
	if !ok {
		return // rings not published yet; a later watch retries
	}
	if ch.NumQueues() != nq {
		return // store and registry disagree; a later watch retries
	}
	a := &attached[I]{Pairing: Pairing{
		BackPath: backPath, FrontPath: frontPath, FrontDom: frontDom, DevID: devid,
		Channel: ch, Ports: ports,
	}}
	if d.lanes != nil && nq == 1 {
		// The toolstack may pin the tenant to a lane (it pinned the
		// frontend's shard to match); otherwise assign round-robin.
		if hint, ok := st.ReadInt(backPath + "/" + xenstore.KeyTenantLane); ok {
			a.Lane = d.lanes[int(hint)%len(d.lanes)]
		} else {
			a.Lane = d.lanes[d.laneNext%len(d.lanes)]
			d.laneNext++
		}
	}
	var err error
	if a.inst, err = d.class.Connect(a.Pairing); err != nil {
		_ = d.bus.SwitchState(backPath, xenbus.StateClosed)
		return
	}
	d.byPath[backPath] = a
	d.order = append(d.order, a)
	_ = d.bus.SwitchState(backPath, xenbus.StateConnected)

	// Tear the instance down when the frontend goes away. Same-instant FIFO
	// contract: frontends that close at one instant are torn down in the
	// order they wrote their state only because the engine runs
	// same-instant events (these watch fires) in scheduling order.
	a.teardown = d.bus.OnStateChange(frontPath, func(s xenbus.State) {
		if s == xenbus.StateClosing || s == xenbus.StateClosed || s == xenbus.StateUnknown {
			d.remove(backPath)
		}
	})
}

// remove tears down the instance paired at backPath and releases
// everything the pairing held: both watches on the frontend, its retry
// entry and its ring publication — a churning fleet must not grow the
// store's watch index, the driver's maps or the registry by one entry per
// departure.
func (d *Driver[I]) remove(backPath string) {
	a := d.byPath[backPath]
	if a == nil {
		return
	}
	delete(d.byPath, backPath)
	i := slices.Index(d.order, a)
	d.order = slices.Delete(d.order, i, i+1)
	d.class.Detach(a.inst)
	st := d.bus.Store()
	st.Unwatch(a.teardown)
	if w := d.watched[a.FrontPath]; w != nil {
		st.Unwatch(w)
		delete(d.watched, a.FrontPath)
	}
	d.reg.Drop(a.FrontDom, a.DevID)
	if st.Exists(backPath) {
		_ = d.bus.SwitchState(backPath, xenbus.StateClosed)
	}
}

// Shutdown tears down every instance (driver domain exit) in attach order.
func (d *Driver[I]) Shutdown() {
	for len(d.order) > 0 {
		d.remove(d.order[0].BackPath)
	}
}
