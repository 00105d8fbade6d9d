// Package pvfront is the guest half of the split-driver skeleton whose
// backend half is pvback.Driver: everything about pairing a frontend with
// its backend that is the same for a vif and a vbd — the backend watch,
// the queue count, one bound event channel per queue, the ring
// publication, the event-channel and queue-count keys, and the walk to
// Connected. A class (netfront, blkfront) supplies its rings, keys and
// data path through a Class; nothing here runs on the data path.
//
// A device survives its backend. When the backend goes (Closing, Closed,
// or a Reattach onto another driver domain) the device quiesces; once the
// old backend is Closed or dead it ends every grant it issued, frees the
// pages and closes its ports, and the next backend gets a fresh handshake.
package pvfront

import (
	"fmt"
	"strconv"

	"kite/internal/pvback"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// Config is what every frontend is created with.
type Config struct {
	Dom      *xen.Domain
	Bus      *xenbus.Bus
	Registry *pvback.Registry
	DevID    int
	BackDom  xen.DomID
	// Queues requests a queue count, negotiated down to the class's cap
	// and the backend's multi-queue-max-queues; 0 means 1.
	Queues int
	// OnReady fires each time the device reaches Connected on both ends.
	OnReady func()
}

// Class is what a device class supplies to the handshake.
type Class interface {
	// Rings reads the backend's features and builds the n-queue rings.
	Rings(backPath string, n int) pvback.Channel
	// Queue builds queue i around its port and returns the port's handler
	// and the vCPU to bind it to (nil: any of the domain's).
	Queue(i int, port xen.Port) (handler func(), cpu *sim.CPU)
	// RingRefs writes queue i's ring refs under dir: the device directory
	// with one queue, its queue-i directory with more.
	RingRefs(dir string, i int)
	// Keys writes the class's own keys under the frontend directory.
	Keys(frontPath string)
	// Connect grants and posts what the data path needs.
	Connect()
	// Lost quiesces the data path: the backend went while connected.
	Lost()
	// Release ends every grant the class issued (EndGrant), drops its
	// queues and reports true. With live set (the guest closed the device
	// under a running backend, which may still reach granted pages through
	// the ring) a class holding grants keeps everything and reports false,
	// to be asked again when the backend reaches Closed.
	Release(live bool) bool
}

// Device is the pairing state of one frontend; a class embeds it. ready
// comes first, so a class that puts its send path just before the
// embedding reads the flag in the same cache line.
type Device struct {
	ready, closed bool
	Config
	class     Class
	typ       string
	maxQueues int
	frontPath string
	backPath  string
	watch     *xenstore.Watch
	// ports are this handshake's event channels; nq is 0 between them.
	ports [8]xen.Port
	nq    int
	// backClosed: the backend is in Closed and maps nothing of ours.
	backClosed bool
}

// Start begins the handshake of a typ device (xenstore.DevVif, DevVbd)
// whose class serves at most maxQueues (≤ 8) queues.
func (d *Device) Start(cfg Config, typ string, maxQueues int, class Class) {
	d.Config, d.typ, d.maxQueues, d.class = cfg, typ, maxQueues, class
	d.frontPath = xenbus.FrontendPath(xenbus.DomID(cfg.Dom.ID), typ, cfg.DevID)
	d.watchBackend()
}

func (d *Device) watchBackend() {
	d.backPath = xenbus.BackendPath(xenbus.DomID(d.BackDom), d.typ, xenbus.DomID(d.Dom.ID), d.DevID)
	d.watch = d.Bus.OnStateChange(d.backPath, d.backendState)
}

// FrontPath returns the frontend's xenstore directory.
func (d *Device) FrontPath() string { return d.frontPath }

// Ready reports whether the device is connected end to end.
func (d *Device) Ready() bool { return d.ready }

// Closed reports whether the guest closed the device (and did not reattach).
func (d *Device) Closed() bool { return d.closed }

// NumQueues returns the negotiated queue count (0 between handshakes).
func (d *Device) NumQueues() int { return d.nq }

// backendState follows the backend: rings at InitWait, Connected at
// Connected, quiesce at Closing, release at Closed.
func (d *Device) backendState(s xenbus.State) {
	d.backClosed = s == xenbus.StateClosed
	switch {
	case s == xenbus.StateClosing || s == xenbus.StateClosed:
		d.lose()
		if d.backClosed {
			d.release()
		}
	case d.closed:
	case s == xenbus.StateInitWait && d.nq == 0:
		d.initialise()
	case s == xenbus.StateConnected && !d.ready && d.nq > 0:
		d.connect()
	}
}

// initialise builds and binds every queue, publishes the rings and keys,
// and moves from Initialising (the toolstack's doing) to Initialised.
func (d *Device) initialise() {
	nq := min(max(d.Queues, 1), d.maxQueues, d.Bus.ReadNumQueues(d.backPath, xenstore.KeyMultiQueueMaxQueues))
	ch := d.class.Rings(d.backPath, nq)
	for i := 0; i < nq; i++ {
		d.ports[i] = d.Dom.AllocUnbound(d.BackDom)
		handler, cpu := d.class.Queue(i, d.ports[i])
		must(d.Dom.SetHandler(d.ports[i], handler))
		if cpu != nil {
			must(d.Dom.BindPortCPU(d.ports[i], cpu))
		}
	}
	d.nq = nq
	d.Registry.Publish(d.Dom.ID, d.DevID, ch)
	if nq == 1 {
		// Legacy flat keys, exactly like a single-queue Linux frontend.
		d.class.RingRefs(d.frontPath, 0)
		d.writePort(d.frontPath, 0)
	} else {
		d.Bus.WriteNumQueues(d.frontPath, nq)
		for i := 0; i < nq; i++ {
			qp := xenbus.QueuePath(d.frontPath, i)
			d.class.RingRefs(qp, i)
			d.writePort(qp, i)
		}
	}
	d.class.Keys(d.frontPath)
	must(d.Bus.SwitchState(d.frontPath, xenbus.StateInitialised))
}

// writePort publishes queue i's event channel under dir.
func (d *Device) writePort(dir string, i int) {
	d.Bus.Store().Write(dir+"/"+xenstore.KeyEventChannel, strconv.FormatUint(uint64(d.ports[i]), 10))
}

// must panics on a handshake step that can only fail on a wiring bug.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("pvfront: %v", err))
	}
}

func (d *Device) connect() {
	d.class.Connect()
	must(d.Bus.SwitchState(d.frontPath, xenbus.StateConnected))
	d.ready = true
	if d.OnReady != nil {
		d.OnReady()
	}
}

// lose quiesces a connected device whose backend went, once per loss.
func (d *Device) lose() {
	if d.ready {
		d.ready = false
		d.class.Lost()
	}
}

// release ends the device's grants and closes its ports, unless a live
// backend may still use them; a closed device then stops following it.
func (d *Device) release() {
	live := !d.backClosed && d.Dom.Hypervisor().Domain(d.BackDom) != nil
	if !d.class.Release(live) {
		return
	}
	for _, p := range d.ports[:d.nq] {
		_ = d.Dom.Close(p)
	}
	d.nq = 0
	if d.closed {
		d.Bus.Store().Unwatch(d.watch)
	}
}

// EndGrant ends a grant and frees its page (0: never granted), once the
// backend is Closed (it unmapped first) or dead (its mappings died too).
func (d *Device) EndGrant(ref xen.GrantRef) {
	if page := d.Dom.GrantedPage(ref); page != nil && d.Dom.EndAccess(ref) == nil {
		d.Dom.Arena.Free(page)
	}
}

// Close detaches the device from the guest's side (ifconfig down + unplug):
// it quiesces, releases what it can and announces Closed, on which the
// backend tears its instance down; a closed device pins no watch.
func (d *Device) Close() {
	d.closed = true
	d.lose()
	d.release()
	_ = d.Bus.SwitchState(d.frontPath, xenbus.StateClosed)
}

// Reattach pairs the device in place with the backend in domain back, for
// which the toolstack re-added it (xenbus.AddDevice); the old backend is
// Closed or dead, so everything the last handshake took is released.
func (d *Device) Reattach(back xen.DomID) {
	d.lose()
	d.backClosed = true
	d.release()
	d.Bus.Store().Unwatch(d.watch)
	d.closed, d.BackDom = false, back
	d.watchBackend()
}
