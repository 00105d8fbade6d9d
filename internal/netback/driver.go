package netback

import (
	"fmt"

	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/netif"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// scanCost is the CPU cost of one backend-invocation pass (xenstore reads
// are charged separately via their latency).
const scanCost = 5 * sim.Microsecond

// Driver is the per-domain network backend driver: it watches the driver
// domain's backend/vif subtree and a dedicated thread pairs every waiting
// frontend with a fresh VIF instance (§4.1 backend invocation). This is
// the single-process replacement for Linux's `xl devd` + hotplug scripts.
type Driver struct {
	eng   *sim.Engine
	dom   *xen.Domain
	bus   *xenbus.Bus
	reg   *netif.Registry
	br    *bridge.Bridge
	costs Costs
	pool  *framepool.Pool

	shards   []*sim.Engine
	lanes    []*ServiceLane // fleet mode: shared DRR workers, one per shard
	laneNext int            // round-robin lane assignment cursor
	tenants  *xenbus.TenantRegistry
	thread   *sim.Task
	vifs     map[string]*VIF // by backend path
	order    []*VIF          // live instances in attach order (deterministic walks)
	watched  map[string]bool // frontend paths already under watch

	// OnVIF is invoked when a new instance connects (the network
	// application uses it to log/track interfaces).
	OnVIF func(*VIF)

	invocations uint64
}

// NewDriver starts the backend driver in dom, serving frontends through
// the given bridge. All VIFs draw frame buffers from pool (nil for a
// private pool).
func NewDriver(eng *sim.Engine, dom *xen.Domain, bus *xenbus.Bus,
	reg *netif.Registry, br *bridge.Bridge, costs Costs,
	pool *framepool.Pool) *Driver {

	if pool == nil {
		pool = framepool.New()
	}
	drv := &Driver{
		eng: eng, dom: dom, bus: bus, reg: reg, br: br, costs: costs, pool: pool,
		vifs:    make(map[string]*VIF),
		watched: make(map[string]bool),
	}
	drv.thread = sim.NewTask(eng, dom.CPUs.CPU(0), dom.Name+"/vif-invoker",
		costs.WakeLatency, drv.scan)
	bus.Store().Watch(xenbus.BackendRoot(xenbus.DomID(dom.ID), xenstore.DevVif), "netback",
		func(string, string) { drv.thread.Wake() })
	return drv
}

// SetShards pins each VIF queue i to shards[i] (cluster shard engines);
// the backend-invocation thread moves to the domain's last vCPU, leaving
// vCPUs 0..len(shards)-1 to the queues. Must be called before any frontend
// connects.
func (d *Driver) SetShards(shards []*sim.Engine) {
	d.shards = shards
	d.thread = sim.NewTask(d.eng, d.dom.CPUs.CPU(d.dom.CPUs.Len()-1),
		d.dom.Name+"/vif-invoker", d.costs.WakeLatency, d.scan)
	// Every queue<->bridge dispatch models at least shardHandoff of
	// latency, so that is the conservative edge bound between the bridge
	// shard and each queue shard.
	for _, sh := range shards {
		sim.DeclareLink(d.eng, sh, shardHandoff)
	}
}

// SetFleet switches the driver into fleet mode: instead of dedicated
// pusher/soft_start threads per VIF, it creates one ServiceLane per shard
// (lane i pinned to vCPU i on shards[i], forwarding on the vCPUs after
// the lane block) and assigns connecting single-queue frontends to lanes
// round-robin. The backend-invocation thread moves to the domain's last
// vCPU. Must be called before any frontend connects.
func (d *Driver) SetFleet(shards []*sim.Engine) {
	d.thread = sim.NewTask(d.eng, d.dom.CPUs.CPU(d.dom.CPUs.Len()-1),
		d.dom.Name+"/vif-invoker", d.costs.WakeLatency, d.scan)
	d.lanes = make([]*ServiceLane, len(shards))
	for _, sh := range shards {
		// Lane workers hand frames to/from the bridge shard with at least
		// the queue dispatch latency, like dedicated-worker queues.
		sim.DeclareLink(d.eng, sh, shardHandoff)
	}
	for i, sh := range shards {
		fwd := len(shards) + i
		if fwd > d.dom.CPUs.Len()-1 {
			fwd = d.dom.CPUs.Len() - 1
		}
		d.lanes[i] = NewServiceLane(i, d.dom, sh, d.dom.CPUs.CPU(i),
			d.br, d.eng, d.dom.CPUs.CPU(fwd), d.costs, d.pool)
	}
}

// SetTenantRegistry installs the control-plane ledger the driver reports
// attach/detach events to.
func (d *Driver) SetTenantRegistry(r *xenbus.TenantRegistry) { d.tenants = r }

// Lanes returns the fleet service lanes (nil in dedicated-worker mode).
func (d *Driver) Lanes() []*ServiceLane { return d.lanes }

// VIFs returns the live instances in attach order.
func (d *Driver) VIFs() []*VIF {
	out := make([]*VIF, len(d.order))
	copy(out, d.order)
	return out
}

// Invocations returns how many pairing attempts the thread performed.
func (d *Driver) Invocations() uint64 { return d.invocations }

// scan is the backend-invocation thread body: walk the backend subtree and
// pair any unpaired frontend.
func (d *Driver) scan() {
	d.dom.CPUs.Charge(scanCost)
	st := d.bus.Store()
	root := xenbus.BackendRoot(xenbus.DomID(d.dom.ID), xenstore.DevVif)
	for _, frontStr := range st.List(root) {
		var frontDom int
		if _, err := fmt.Sscanf(frontStr, "%d", &frontDom); err != nil {
			continue
		}
		for _, devStr := range st.List(root + "/" + frontStr) {
			var devid int
			if _, err := fmt.Sscanf(devStr, "%d", &devid); err != nil {
				continue
			}
			backPath := root + "/" + frontStr + "/" + devStr
			if _, exists := d.vifs[backPath]; exists {
				continue
			}
			d.tryPair(backPath, xen.DomID(frontDom), devid)
		}
	}
}

func (d *Driver) tryPair(backPath string, frontDom xen.DomID, devid int) {
	st := d.bus.Store()
	frontPath, ok := st.Read(backPath + "/" + xenstore.KeyFrontend)
	if !ok {
		return
	}
	switch d.bus.State(backPath) {
	case xenbus.StateInitialising:
		// Announce ourselves and advertise features, including how many
		// queues we can serve: one per driver-domain vCPU, capped like
		// xen-netback's module parameter.
		d.bus.WriteFeature(backPath, xenstore.KeyFeatureRxCopy, true)
		maxq := d.dom.CPUs.Len()
		if maxq > netif.MaxQueues {
			maxq = netif.MaxQueues
		}
		st.Writef(backPath+"/"+xenstore.KeyMultiQueueMaxQueues, "%d", maxq)
		_ = d.bus.SwitchState(backPath, xenbus.StateInitWait)
	case xenbus.StateClosed, xenbus.StateClosing:
		return
	}

	fs := d.bus.State(frontPath)
	if fs != xenbus.StateInitialised && fs != xenbus.StateConnected {
		// Frontend not ready: watch it (once) and retry on transitions.
		if !d.watched[frontPath] {
			d.watched[frontPath] = true
			d.bus.OnStateChange(frontPath, func(xenbus.State) { d.thread.Wake() })
		}
		return
	}

	d.invocations++
	// Multi-queue frontends publish per-queue event channels under
	// queue-N/; single-queue ones keep the legacy flat key.
	nq := d.bus.ReadNumQueues(frontPath, xenstore.KeyMultiQueueNumQueues)
	ports := make([]xen.Port, nq)
	var rssSeed uint64
	if nq == 1 {
		port, ok := st.ReadInt(frontPath + "/" + xenstore.KeyEventChannel)
		if !ok {
			return
		}
		ports[0] = xen.Port(port)
	} else {
		for i := 0; i < nq; i++ {
			port, ok := st.ReadInt(xenbus.QueuePath(frontPath, i) + "/" + xenstore.KeyEventChannel)
			if !ok {
				return
			}
			ports[i] = xen.Port(port)
		}
		seed, ok := st.ReadInt(frontPath + "/" + xenstore.KeyMultiQueueHashSeed)
		if !ok {
			return // multi-queue frontends must publish their steering seed
		}
		rssSeed = uint64(seed)
	}
	ch, err := d.reg.Claim(frontDom, devid)
	if err != nil {
		return // ring refs not published yet; a later watch retries
	}
	if ch.NumQueues() != nq {
		return // store and registry disagree; a later watch retries
	}
	var vif *VIF
	laneID := -1
	if d.lanes != nil && nq == 1 {
		// The toolstack may pin the tenant to a lane (it pinned the
		// frontend's shard to match); otherwise assign round-robin.
		lane := d.lanes[d.laneNext%len(d.lanes)]
		if hint, ok := st.ReadInt(backPath + "/" + xenstore.KeyTenantLane); ok {
			lane = d.lanes[int(hint)%len(d.lanes)]
		} else {
			d.laneNext++
		}
		laneID = lane.ID()
		vif, err = NewVIFOnLane(d.eng, d.dom, frontDom, devid, ch,
			ports, d.br, d.costs, d.pool, lane)
	} else {
		vif, err = NewVIF(d.eng, d.dom, frontDom, devid, ch,
			ports, d.br, d.costs, d.pool, rssSeed, d.shards)
	}
	if err != nil {
		_ = d.bus.SwitchState(backPath, xenbus.StateClosed)
		return
	}
	d.vifs[backPath] = vif
	d.order = append(d.order, vif)
	d.br.AddPort(vif)
	if laneID >= 0 {
		// Fleet tenants speak only through the NAT router: isolating their
		// ports keeps one tenant's broadcasts (gateway ARP, mostly) from
		// fanning a copy into every other tenant's RX queue.
		d.br.SetIsolated(vif, true)
	}
	if d.tenants != nil {
		d.tenants.AttachVIF(xenbus.DomID(frontDom), laneID)
	}
	_ = d.bus.SwitchState(backPath, xenbus.StateConnected)

	// Tear the instance down when the frontend goes away.
	d.bus.OnStateChange(frontPath, func(s xenbus.State) {
		if s == xenbus.StateClosing || s == xenbus.StateClosed || s == xenbus.StateUnknown {
			d.removeVIF(backPath)
		}
	})
	if d.OnVIF != nil {
		d.OnVIF(vif)
	}
}

func (d *Driver) removeVIF(backPath string) {
	vif := d.vifs[backPath]
	if vif == nil {
		return
	}
	delete(d.vifs, backPath)
	for i, v := range d.order {
		if v == vif {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.br.RemovePort(vif)
	vif.Shutdown()
	if d.tenants != nil {
		d.tenants.DetachVIF(xenbus.DomID(vif.frontDom))
	}
	if d.bus.Store().Exists(backPath) {
		_ = d.bus.SwitchState(backPath, xenbus.StateClosed)
	}
}

// Shutdown tears down every instance (driver domain exit) in attach order.
func (d *Driver) Shutdown() {
	for len(d.order) > 0 {
		vif := d.order[0]
		for path, v := range d.vifs {
			if v == vif {
				d.removeVIF(path)
				break
			}
		}
	}
}
