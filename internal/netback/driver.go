package netback

import (
	"fmt"

	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/netif"
	"kite/internal/pvback"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// Driver is the per-domain network backend driver: the shared
// backend-invocation skeleton (pvback.Driver: watch backend/vif, pair every
// waiting frontend, tear down on departure) over the vif device class — the
// receiver's Type/MaxQueues/Advertise/Connect/Detach, which say what is
// particular to a network backend: the rx-copy feature, the RSS steering
// seed, queue-to-shard pinning, and the bridge port each VIF is.
type Driver struct {
	*pvback.Driver[*VIF]

	eng   *sim.Engine
	dom   *xen.Domain
	bus   *xenbus.Bus
	br    *bridge.Bridge
	costs Costs
	pool  *framepool.Pool

	shards []*sim.Engine
	// laneDS holds each fleet lane's drain state, by lane ID.
	laneDS []*drainState
}

// NewDriver starts the backend driver in dom, serving frontends through
// the given bridge. All VIFs draw frame buffers from pool (nil for a
// private pool).
func NewDriver(eng *sim.Engine, dom *xen.Domain, bus *xenbus.Bus,
	reg *pvback.Registry, br *bridge.Bridge, costs Costs,
	pool *framepool.Pool) *Driver {

	if pool == nil {
		pool = framepool.New()
	}
	d := &Driver{eng: eng, dom: dom, bus: bus, br: br, costs: costs, pool: pool}
	d.Driver = pvback.NewDriver[*VIF](eng, dom, bus, reg, d, costs.WakeLatency)
	return d
}

// SetShards pins each VIF queue i to shards[i] (cluster shard engines);
// the backend-invocation thread moves to the domain's last vCPU, leaving
// vCPUs 0..len(shards)-1 to the queues. Must be called before any frontend
// connects.
func (d *Driver) SetShards(shards []*sim.Engine) {
	d.shards = shards
	d.MoveInvoker()
}

// laneQuantum is the per-tenant byte allotment per DRR round.
const laneQuantum = 16 << 10

// SetFleet switches the driver into fleet mode: instead of dedicated
// pusher/soft_start threads per VIF, it creates one service lane per shard
// (lane i pinned to vCPU i on shards[i], forwarding on the vCPUs after the
// lane block) and connecting single-queue frontends are assigned to lanes.
// Each lane owns one drain state — one set of scratch slices and one bridge
// carrier however many tenants it serves: its members charge the lane vCPU
// in execution order, so their stamped bridge arrival times are monotone
// and the single-producer contract bridge.Lane.InputAt requires holds
// across tenants. Whatever a round's Tx drains staged leaves for the
// bridge in one carrier post at the end of the round. Must be called before
// any frontend connects.
func (d *Driver) SetFleet(shards []*sim.Engine) {
	lanes := make([]*pvback.Lane, len(shards))
	d.laneDS = make([]*drainState, len(shards))
	for i, sh := range shards {
		fwd := min(len(shards)+i, d.dom.CPUs.Len()-1)
		cpu := d.dom.CPUs.CPU(i)
		cpu.SetEngine(sh)
		ds := newDrainState(sh, d.eng, d.br.NewLane(d.dom.CPUs.CPU(fwd)))
		d.laneDS[i] = ds
		lanes[i] = pvback.NewLane(i, d.dom, sh, cpu, d.costs.WakeLatency, laneQuantum, ds.postTx)
	}
	d.Driver.SetFleet(lanes)
}

// VIFs returns the live instances in attach order.
func (d *Driver) VIFs() []*VIF { return d.Instances() }

// Type implements pvback.Class.
func (d *Driver) Type() string { return xenstore.DevVif }

// MaxQueues implements pvback.Class.
func (d *Driver) MaxQueues() int { return netif.MaxQueues }

// Advertise implements pvback.Class.
func (d *Driver) Advertise(backPath string) error {
	d.bus.WriteFeature(backPath, xenstore.KeyFeatureRxCopy, true)
	return nil
}

// Connect implements pvback.Class: build the VIF — on its lane in fleet
// mode, else on dedicated workers steered by the frontend's published RSS
// seed — and attach it to the bridge.
func (d *Driver) Connect(p pvback.Pairing) (*VIF, error) {
	ch, ok := p.Channel.(*netif.Channel)
	if !ok {
		return nil, fmt.Errorf("netback: vif%d.%d: published rings are not netif rings", p.FrontDom, p.DevID)
	}
	var rssSeed int64
	if p.Lane == nil && len(p.Ports) > 1 {
		if rssSeed, ok = d.bus.Store().ReadInt(p.FrontPath + "/" + xenstore.KeyMultiQueueHashSeed); !ok {
			return nil, fmt.Errorf("netback: vif%d.%d: multi-queue frontend published no steering seed", p.FrontDom, p.DevID)
		}
	}
	vif, err := d.newVIF(p, ch, uint64(rssSeed))
	if err != nil {
		return nil, err
	}
	d.br.AddPort(vif)
	if p.Lane != nil {
		// Fleet tenants speak only through the NAT router: isolating their
		// ports keeps one tenant's broadcasts (gateway ARP, mostly) from
		// fanning a copy into every other tenant's RX queue.
		d.br.SetIsolated(vif, true)
	}
	return vif, nil
}

// Detach implements pvback.Class.
func (d *Driver) Detach(vif *VIF) {
	d.br.RemovePort(vif)
	vif.Shutdown()
}
