package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"kite/internal/blkpool"
	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/nat"
	"kite/internal/netpkt"
	"kite/internal/nic"
	"kite/internal/nvme"
	"kite/internal/ring"
	"kite/internal/sim"
	"kite/internal/timewheel"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// micro is a kind-C micro-driver: it calls one layer's exported functions
// directly, at the parameters the workloads use, with the same discipline
// as the slices — fixed work per batch, median of batches. setup builds the
// fixture and returns a batch function that makes exactly calls calls and
// returns the host time they took.
type micro struct {
	name  string
	calls int
	setup func(calls int) func() time.Duration
}

const microBatches = 5

// timeLoop times n calls of fn.
func timeLoop(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start)
}

func nop() {}

var micros = []micro{
	{"sim.engine.sched_step_ns.heap1k", 400000, schedStep(1 << 10)},
	{"sim.engine.sched_step_ns.heap64k", 400000, schedStep(1 << 16)},
	{"sim.cluster.window_ns.workers1", 20000, clusterWindow(1)},
	{"sim.cluster.window_ns.workersN", 20000, clusterWindow(0)},
	{"sim.cluster.post_ns", 400000, clusterPost},
	{"ring.cycle_ns", 1000000, ringCycle},
	{"xen.copygrant_ns.b128", 400000, copyGrant(128)},
	{"xen.copygrant_ns.b1400", 400000, copyGrant(1400)},
	{"xen.notify_ns", 200000, notify},
	{"xen.map_unmap_ns", 200000, mapUnmap},
	{"xen.demux.scan_ns.pending1", 200000, demuxScan(1)},
	{"xen.demux.scan_ns.pending1024", 400, demuxScan(1024)},
	{"framepool.get_release_ns", 2000000, framepoolGetRelease},
	{"framepool.release_remote_ns", 200000, framepoolRemote},
	{"bridge.input_ns.fdb1", 200000, bridgeInput(1)},
	{"bridge.input_ns.fdb1024", 200000, bridgeInput(1024)},
	{"bridge.agefdb_ns.fdb1024", 40, bridgeAge},
	{"nat.rewrite_ns.flows1k", 200000, natRewrite(1 << 10)},
	{"nat.rewrite_ns.flows64k", 200000, natRewrite(1 << 16)},
	{"timewheel.add_advance_ns.live1k", 400000, wheelCycle(8)},
	{"timewheel.add_advance_ns.live64k", 400000, wheelCycle(512)},
	{"netpkt.decode_udp_ns", 1000000, decodeUDP},
	{"netpkt.checksum_ns.b1400", 100000, checksum},
	{"netpkt.rss_hash_ns", 1000000, rssHash},
	{"nic.send_ns", 200000, nicSend},
	{"nvme.writevec_ns.b4k", 100000, nvmeVec(true, 4<<10)},
	{"nvme.readvec_ns.b256k", 4000, nvmeVec(false, 256<<10)},
	{"blkpool.get_release_ns", 2000000, blkpoolGetRelease},
	{"xenstore.txn_write_ns", 100000, xenstoreTxn},
}

// runMicros runs every micro-driver and returns ns per call, by name.
func runMicros(o *options, tr *tracer) map[string]quartiles {
	out := make(map[string]quartiles, len(micros))
	for _, m := range micros {
		calls := m.calls
		if o.quick {
			calls = max(calls/quickDivisor, 8)
		}
		batch := m.setup(calls)
		batch() // warm: pools, tables and heaps reach their high-water marks
		ns := make([]float64, microBatches)
		for i := range ns {
			sp := tr.beginL(spanMicro, m.name)
			ns[i] = float64(batch()) / float64(calls)
			tr.end(sp)
		}
		out[m.name] = summarize(ns)
	}
	return out
}

// schedStep: Schedule + Step with depth events pending behind the new one.
func schedStep(depth int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		eng := sim.NewEngine()
		for i := 0; i < depth; i++ {
			eng.Schedule(sim.Second+sim.Time(i)*sim.Microsecond, nop)
		}
		return func() time.Duration {
			return timeLoop(calls, func(int) {
				eng.After(sim.Nanosecond, nop)
				eng.Step()
			})
		}
	}
}

const microShards = 5

// starCluster builds the rigs' topology: shard 0 linked to every queue shard.
func starCluster(workers int) *sim.Cluster {
	c := sim.NewCluster(microShards, 2*sim.Microsecond, 1)
	for i := 1; i < microShards; i++ {
		c.DeclareEdge(0, i, 2*sim.Microsecond)
		c.DeclareEdge(i, 0, 2*sim.Microsecond)
	}
	if workers == 0 {
		workers = min(microShards, runtime.NumCPU())
	}
	c.SetWorkers(workers)
	return c
}

// clusterWindow: every shard runs one event and stages one cross-shard post
// per lookahead window; the figure is host ns per window.
func clusterWindow(workers int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		c := starCluster(workers)
		const step = 2 * sim.Microsecond
		sink := func(any) {}
		for i := 0; i < microShards; i++ {
			self, peer := c.Shard(i), c.Shard(0)
			if i == 0 {
				peer = c.Shard(1)
			}
			var tick func()
			tick = func() {
				self.Post(peer, step, sim.PriData, sink, nil)
				self.After(step, tick)
			}
			self.After(step, tick)
		}
		return func() time.Duration {
			w0 := c.Windows()
			start := time.Now()
			for c.Windows()-w0 < uint64(calls) {
				c.RunUntil(c.Shard(0).Now() + 64*step)
			}
			// Normalise to exactly calls windows: RunUntil overshoots by a few.
			return time.Duration(float64(time.Since(start)) * float64(calls) / float64(c.Windows()-w0))
		}
	}
}

// clusterPost: 256 posts staged per window, so the window's own cost is
// amortised and the figure is the marginal stage + merge + deliver per post.
func clusterPost(calls int) func() time.Duration {
	c := starCluster(1)
	home, q := c.Shard(0), c.Shard(1)
	const perEvent = 256
	sink := func(any) {}
	left := 0
	var burst func()
	burst = func() {
		for k := 0; k < perEvent; k++ {
			home.Post(q, 2*sim.Microsecond, sim.PriData, sink, nil)
		}
		if left -= perEvent; left > 0 {
			home.After(4*sim.Microsecond, burst)
		}
	}
	return func() time.Duration {
		left = calls
		home.After(sim.Microsecond, burst)
		start := time.Now()
		c.Run()
		return time.Since(start)
	}
}

// ringCycle: one request and its response through a 256-slot ring, with the
// notify checks both ends make.
func ringCycle(calls int) func() time.Duration {
	r := ring.New[uint64, uint64](256)
	return func() time.Duration {
		return timeLoop(calls, func(i int) {
			r.PushRequest(uint64(i))
			r.PushRequestsAndCheckNotify()
			req, _ := r.TakeRequest()
			r.FinalCheckForRequests()
			r.PushResponse(req)
			r.PushResponsesAndCheckNotify()
			r.TakeResponse()
			r.FinalCheckForResponses()
		})
	}
}

// xenPair boots a hypervisor with a frontend and a backend domain.
func xenPair() (hv *xen.Hypervisor, front, back *xen.Domain) {
	hv = xen.New(sim.NewEngine())
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 64 << 20, Privileged: true})
	front = hv.CreateDomain(xen.DomainConfig{Name: "front", VCPUs: 1, MemBytes: 64 << 20})
	back = hv.CreateDomain(xen.DomainConfig{Name: "back", VCPUs: 1, MemBytes: 64 << 20})
	return hv, front, back
}

// copyGrant: one GNTTABOP_copy of n bytes from a granted page into a local
// buffer — netback's per-frame copy.
func copyGrant(n int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		hv, front, back := xenPair()
		page := front.Arena.MustAlloc()
		ref := front.GrantAccess(back.ID, page, true)
		dst := make([]byte, 4096)
		ops := []xen.CopyOp{{Src: xen.CopyPtr{Dom: front.ID, Ref: ref}, Dst: xen.CopyPtr{Data: dst}, Len: n}}
		return func() time.Duration {
			return timeLoop(calls, func(int) {
				if err := hv.CopyGrant(back, ops); err != nil {
					panic(err)
				}
			})
		}
	}
}

// notify: EVTCHNOP_send plus the upcall event it schedules.
func notify(calls int) func() time.Duration {
	hv, front, back := xenPair()
	fp := front.AllocUnbound(back.ID)
	bp, err := back.BindInterdomain(front.ID, fp)
	if err != nil {
		panic(err)
	}
	if err := front.SetHandler(fp, nop); err != nil {
		panic(err)
	}
	return func() time.Duration {
		return timeLoop(calls, func(int) {
			back.Notify(bp)
			hv.Eng.Run()
		})
	}
}

// mapUnmap: map one grant, unmap it — the non-persistent path.
func mapUnmap(calls int) func() time.Duration {
	hv, front, back := xenPair()
	ref := front.GrantAccess(back.ID, front.Arena.MustAlloc(), false)
	return func() time.Duration {
		return timeLoop(calls, func(int) {
			m, err := hv.MapGrant(back, front.ID, ref)
			if err != nil {
				panic(err)
			}
			if err := hv.UnmapGrant(back, m); err != nil {
				panic(err)
			}
		})
	}
}

// demuxScan: a 1024-member demux group; one call is pending doorbells rung
// and the single scan that delivers them.
func demuxScan(pending int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		const members = 1024
		hv, front, back := xenPair()
		dm := back.NewDemux(back.CPUs.CPU(0), 0)
		fronts := make([]xen.Port, members)
		for i := range fronts {
			fronts[i] = front.AllocUnbound(back.ID)
			bp, err := back.BindInterdomain(front.ID, fronts[i])
			if err == nil {
				err = back.SetHandler(bp, nop)
			}
			if err == nil {
				err = dm.Join(bp)
			}
			if err != nil {
				panic(err)
			}
		}
		return func() time.Duration {
			return timeLoop(calls, func(i int) {
				for k := 0; k < pending; k++ {
					front.Notify(fronts[(i+k*(members/pending))%members])
				}
				hv.Eng.Run()
			})
		}
	}
}

func framepoolGetRelease(calls int) func() time.Duration {
	p := framepool.New()
	return func() time.Duration {
		return timeLoop(calls, func(int) { p.Get().Release() })
	}
}

// framepoolRemote: a buffer taken on its home shard, handed to a foreign
// shard, released there with ReleaseOn, and recycled at the barrier.
func framepoolRemote(calls int) func() time.Duration {
	c := starCluster(1)
	home, q := c.Shard(0), c.Shard(1)
	p := framepool.New()
	p.SetHome(home)
	const perEvent = 64
	p.Prealloc(4 * perEvent)
	drop := func(b any) { b.(*framepool.Buf).ReleaseOn(q) }
	left := 0
	var burst func()
	burst = func() {
		for k := 0; k < perEvent; k++ {
			home.Post(q, 2*sim.Microsecond, sim.PriData, drop, p.Get())
		}
		if left -= perEvent; left > 0 {
			home.After(8*sim.Microsecond, burst)
		}
	}
	return func() time.Duration {
		left = calls
		home.After(sim.Microsecond, burst)
		start := time.Now()
		c.Run()
		if n := p.Outstanding(); n != 0 {
			panic(fmt.Sprintf("framepool micro-driver leaked %d buffers", n))
		}
		return time.Since(start)
	}
}

// stubDev is a bridge.FrameDevice that drops what it is sent.
type stubDev struct{ recv func(*framepool.Buf) }

func (d *stubDev) Send(f *framepool.Buf) bool        { f.Release(); return true }
func (d *stubDev) SetRecv(fn func(f *framepool.Buf)) { d.recv = fn }

func macOf(i int) netpkt.MAC { return netpkt.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)} }

// ethFrame takes a pooled buffer holding a 64-byte frame dst <- src.
func ethFrame(p *framepool.Pool, dst, src netpkt.MAC) *framepool.Buf {
	b := p.Get()
	pkt := b.Extend(64)
	copy(pkt[0:6], dst[:])
	copy(pkt[6:12], src[:])
	return b
}

// bridgeFixture is a bridge between two stub ports with fdb MACs learned
// behind the first.
func bridgeFixture(fdb int) (eng *sim.Engine, br *bridge.Bridge, p *framepool.Pool, a, b *stubDev) {
	eng = sim.NewEngine()
	br = bridge.New(eng, sim.NewCPUPool(eng, "br", 1), "xenbr0")
	p = framepool.New()
	a, b = &stubDev{}, &stubDev{}
	br.AttachDevice("a", a)
	br.AttachDevice("b", b)
	learn(eng, p, a, fdb)
	return
}

func learn(eng *sim.Engine, p *framepool.Pool, from *stubDev, n int) {
	for i := 0; i < n; i++ {
		from.recv(ethFrame(p, macOf(1<<20), macOf(i)))
	}
	eng.Run()
}

// bridgeInput: Bridge.Input of a unicast frame whose destination is one of
// fdb learned MACs, through to the egress port's Deliver.
func bridgeInput(fdb int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		eng, _, p, _, b := bridgeFixture(fdb)
		src := macOf(1 << 20)
		return func() time.Duration {
			return timeLoop(calls, func(i int) {
				b.recv(ethFrame(p, macOf(i%fdb), src))
				if i%64 == 63 {
					eng.Run()
				}
			})
		}
	}
}

// bridgeAge: AgeFDB evicting 1024 entries that all went idle; only the
// aging call is timed, the re-learning between calls is not.
func bridgeAge(calls int) func() time.Duration {
	eng, br, p, a, _ := bridgeFixture(0)
	return func() time.Duration {
		var total time.Duration
		for i := 0; i < calls; i++ {
			learn(eng, p, a, 1024)
			eng.RunUntil(eng.Now() + 3*sim.Second)
			start := time.Now()
			n := br.AgeFDB(sim.Second)
			total += time.Since(start)
			if n != 1024 {
				panic(fmt.Sprintf("AgeFDB evicted %d of 1024 idle entries", n))
			}
		}
		return total
	}
}

// natRewrite: RewriteOutbound then RewriteInbound of the reply, over a table
// of established flows. The dynamic port space caps the table at 45 536
// flows, so the "64k" fixture holds that many.
func natRewrite(flows int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		eng := sim.NewEngine()
		gw, peer := netpkt.IPv4(192, 0, 2, 1), netpkt.IPv4(198, 51, 100, 7)
		tr := nat.New(eng, sim.NewCPUPool(eng, "nat", 1), gw)
		flows = min(flows, 1<<16-20000)
		pkt := make([]byte, netpkt.IPHeaderLen+netpkt.UDPHeaderLen+32)
		cycle := func(i int) {
			f := i % flows
			out := netpkt.IPv4Header{TTL: 64, Proto: netpkt.ProtoUDP, Src: netpkt.IPv4(10, 1, byte(f>>8), byte(f)), Dst: peer}
			out.HeaderInto(pkt, netpkt.UDPHeaderLen+32)
			udp := netpkt.UDPHeader{SrcPort: 5000 + uint16(f>>16), DstPort: 53}
			udp.HeaderInto(pkt[netpkt.IPHeaderLen:], 32)
			if !tr.RewriteOutbound(pkt) {
				panic("nat micro-driver: outbound packet dropped")
			}
			ext := binary.BigEndian.Uint16(pkt[netpkt.IPHeaderLen:])
			in := netpkt.IPv4Header{TTL: 64, Proto: netpkt.ProtoUDP, Src: peer, Dst: gw}
			in.HeaderInto(pkt, netpkt.UDPHeaderLen+32)
			udp = netpkt.UDPHeader{SrcPort: 53, DstPort: ext}
			udp.HeaderInto(pkt[netpkt.IPHeaderLen:], 32)
			if _, ok := tr.RewriteInbound(pkt); !ok {
				panic("nat micro-driver: reply dropped")
			}
		}
		for i := 0; i < flows; i++ {
			cycle(i)
		}
		return func() time.Duration { return timeLoop(calls, cycle) }
	}
}

// wheelCycle: Add one node and Advance one tick, with perTick adds per tick
// and a 128-tick idle cutoff — 128 x perTick nodes live in steady state.
func wheelCycle(perTick int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		const gran, idleTicks = sim.Millisecond, 128
		w := timewheel.New(gran, 256)
		seen := make([]sim.Time, idleTicks*perTick*2)
		probe := func(_ timewheel.Handle, key uint64) sim.Time { return seen[key] }
		expire := func(uint64) {}
		var now sim.Time
		var key uint64
		cycle := func(i int) {
			if i%perTick == 0 {
				now += gran
				w.Advance(now-idleTicks*gran, probe, expire)
			}
			key = (key + 1) % uint64(len(seen))
			seen[key] = now
			w.Add(key, now)
		}
		for i := 0; i < 2*idleTicks*perTick; i++ {
			cycle(i)
		}
		return func() time.Duration { return timeLoop(calls, cycle) }
	}
}

var microSink uint64 // keeps pure calls from being optimised away

func decodeUDP(calls int) func() time.Duration {
	pkt := make([]byte, netpkt.UDPHeaderLen+128)
	u := netpkt.UDPHeader{SrcPort: 9001, DstPort: 9000}
	u.HeaderInto(pkt, 128)
	return func() time.Duration {
		return timeLoop(calls, func(int) {
			h, payload, _ := netpkt.DecodeUDP(pkt)
			microSink += uint64(h.DstPort) + uint64(len(payload))
		})
	}
}

func checksum(calls int) func() time.Duration {
	pkt := make([]byte, 1400)
	fillPattern(pkt, 1)
	return func() time.Duration {
		return timeLoop(calls, func(int) { microSink += uint64(netpkt.Checksum(pkt)) })
	}
}

func rssHash(calls int) func() time.Duration {
	rss := netpkt.NewRSS(0)
	var tuple [12]byte
	return func() time.Duration {
		return timeLoop(calls, func(i int) {
			binary.BigEndian.PutUint16(tuple[8:10], uint16(i))
			microSink += uint64(rss.Hash12(&tuple))
		})
	}
}

// nicSend: NIC.Send of a 128 B frame and its arrival at the peer, in bursts
// of 64 like a drained wave.
func nicSend(calls int) func() time.Duration {
	eng := sim.NewEngine()
	a := nic.New(eng, "a", macOf(1), "00:01.0")
	b := nic.New(eng, "b", macOf(2), "00:02.0")
	nic.Connect(a, b, nic.DefaultLink())
	b.SetRecv(func(f *framepool.Buf) { f.Release() })
	p := framepool.New()
	return func() time.Duration {
		return timeLoop(calls, func(i int) {
			f := p.Get()
			f.Extend(128)
			a.Send(f)
			if i%64 == 63 {
				eng.Run()
			}
		})
	}
}

// nvmeVec: one scatter-gather command of n bytes over 4 KiB segments on a
// pre-written region, through to its completion callback.
func nvmeVec(write bool, n int) func(int) func() time.Duration {
	return func(calls int) func() time.Duration {
		eng := sim.NewEngine()
		dev := nvme.New(eng, nvme.Default970EvoPlus(), "04:00.0")
		iov := make([][]byte, n/4096)
		for i := range iov {
			iov[i] = make([]byte, 4096)
		}
		done := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		const span = 64 << 20 // the workload's window
		for off := 0; off < span; off += n {
			dev.WriteVec(int64(off/512), iov, done)
			eng.Run()
		}
		return func() time.Duration {
			return timeLoop(calls, func(i int) {
				sector := int64(i*n%span) / 512
				if write {
					dev.WriteVec(sector, iov, done)
				} else {
					dev.ReadVec(sector, iov, done)
				}
				eng.Run()
			})
		}
	}
}

func blkpoolGetRelease(calls int) func() time.Duration {
	p := blkpool.New()
	return func() time.Duration {
		return timeLoop(calls, func(int) { p.Get(4096).Release() })
	}
}

// xenstoreTxn: begin, write one tenant key, commit.
func xenstoreTxn(calls int) func() time.Duration {
	st := xenstore.New(sim.NewEngine())
	path := xenbus.TenantPath(1, 2) + "/" + xenstore.KeyTenantVifs
	return func() time.Duration {
		return timeLoop(calls, func(int) {
			tx := st.Begin()
			tx.Write(path, "1")
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		})
	}
}
