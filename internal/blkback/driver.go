package blkback

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"kite/internal/blkif"
	"kite/internal/nvme"
	"kite/internal/pvback"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// Driver is the storage backend driver: the shared backend-invocation
// skeleton (pvback.Driver — the same thread pattern as networking, §4.1)
// over the vbd device class — the receiver's
// Type/MaxQueues/Advertise/Connect/Detach, which say what is particular to
// a storage backend: the device properties it advertises for each new vbd
// (§4.4: sectors, sector size, flush, persistent grants, indirect limit)
// and the vbd's window on the physical device, from the toolstack-written
// "params" key ("<base>:<sectors>").
type Driver struct {
	*pvback.Driver[*Instance]

	eng   *sim.Engine
	dom   *xen.Domain
	bus   *xenbus.Bus
	dev   *nvme.Device
	costs Costs
}

// NewDriver starts the backend driver in dom, exporting windows of dev.
func NewDriver(eng *sim.Engine, dom *xen.Domain, bus *xenbus.Bus,
	reg *pvback.Registry, dev *nvme.Device, costs Costs) *Driver {

	d := &Driver{eng: eng, dom: dom, bus: bus, dev: dev, costs: costs}
	d.Driver = pvback.NewDriver[*Instance](eng, dom, bus, reg, d, costs.WakeLatency)
	return d
}

// laneReqQuantum is the per-tenant request allotment per DRR round.
const laneReqQuantum = 32

// SetFleet switches the driver into fleet mode with n shared DRR lanes:
// lane i's worker runs on vCPU i (mod the domain's vCPU count), which is
// also the lane's NVMe submission queue, and connecting single-queue
// frontends are assigned to lanes instead of getting dedicated request
// threads. Must be called before any frontend connects.
func (d *Driver) SetFleet(n int) {
	lanes := make([]*pvback.Lane, n)
	for i := range lanes {
		lanes[i] = pvback.NewLane(i, d.dom, d.eng,
			d.dom.CPUs.CPU(i%d.dom.CPUs.Len()), d.costs.WakeLatency, laneReqQuantum, nil)
	}
	d.Driver.SetFleet(lanes)
}

// Type implements pvback.Class.
func (d *Driver) Type() string { return xenstore.DevVbd }

// MaxQueues implements pvback.Class.
func (d *Driver) MaxQueues() int { return blkif.MaxQueues }

// Advertise implements pvback.Class: the device properties of §4.4's
// initialization. A vbd whose window does not fit the device is refused.
func (d *Driver) Advertise(backPath string) error {
	_, sectors, err := d.window(backPath)
	if err != nil {
		return err
	}
	st := d.bus.Store()
	st.Write(backPath+"/"+xenstore.KeySectors, strconv.FormatInt(sectors, 10))
	st.Write(backPath+"/"+xenstore.KeySectorSize, strconv.Itoa(blkif.SectorSize))
	d.bus.WriteFeature(backPath, xenstore.KeyFeatureFlushCache, true)
	d.bus.WriteFeature(backPath, xenstore.KeyFeaturePersistent, d.costs.Persistent)
	if d.costs.Indirect {
		st.Write(backPath+"/"+xenstore.KeyFeatureMaxIndirect, strconv.Itoa(blkif.MaxSegsIndirect))
	}
	return nil
}

// Connect implements pvback.Class: build the instance over the vbd's
// window, on its lane in fleet mode, else on dedicated request threads.
func (d *Driver) Connect(p pvback.Pairing) (*Instance, error) {
	ch, ok := p.Channel.(*blkif.Channel)
	if !ok {
		return nil, fmt.Errorf("blkback: vbd%d.%d: published rings are not blkif rings", p.FrontDom, p.DevID)
	}
	base, sectors, err := d.window(p.BackPath)
	if err != nil {
		return nil, err
	}
	return NewInstance(d.eng, d.dom, p.FrontDom, p.DevID, ch, p.Ports,
		d.dev, base, sectors, d.costs, p.Lane)
}

// Detach implements pvback.Class.
func (d *Driver) Detach(inst *Instance) { inst.Shutdown() }

// window parses the toolstack's "params" key: "<baseSector>:<sectors>".
// It runs at the deepest point of the connect handshake, where fmt's
// scanner frames grew the goroutine's stack on every rig build, so it
// parses with strconv.
func (d *Driver) window(backPath string) (base, sectors int64, err error) {
	v, ok := d.bus.Store().Read(backPath + "/" + xenstore.KeyParams)
	if !ok {
		return 0, 0, fmt.Errorf("blkback: %s missing params", backPath)
	}
	b, s, ok := strings.Cut(v, ":")
	if !ok {
		return 0, 0, fmt.Errorf("blkback: bad params %q: no ':'", v)
	}
	base, err1 := strconv.ParseInt(b, 10, 64)
	sectors, err2 := strconv.ParseInt(s, 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, fmt.Errorf("blkback: bad params %q: %w", v, err)
	}
	if base < 0 || sectors <= 0 || base+sectors > d.dev.CapacitySectors() {
		return 0, 0, fmt.Errorf("blkback: window %d:%d exceeds device", base, sectors)
	}
	return base, sectors, nil
}
