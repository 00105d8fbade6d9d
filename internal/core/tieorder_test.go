package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// tieBand is how far a simulated latency or throughput may drift, relative,
// when every tie in the event order is reversed: the model's own
// resolution. ROADMAP item 5's tolerances against the paper's tables may
// not be tighter.
const tieBand = 1e-3

// tieFigures is what one run of a rig reports. exact holds what reversing
// the ties may not move at all: byte totals, checksums and grant counts;
// zero holds losses and leaks, which must read 0 both ways. sim holds
// simulated latencies (ns) and throughputs (MB/s), held to tieBand.
type tieFigures struct {
	exact, zero map[string]uint64
	sim         map[string]float64
}

func newTieFigures() *tieFigures {
	return &tieFigures{exact: map[string]uint64{}, zero: map[string]uint64{}, sim: map[string]float64{}}
}

// leaks records the system's buffer pools and every guest's live grants
// once the run has drained.
func (f *tieFigures) leaks(sys *System, guests []*Guest) {
	sys.Eng.Run()
	f.zero["frames outstanding"] = uint64(sys.Pool.Outstanding())
	f.zero["blocks outstanding"] = uint64(sys.BlkPool.Outstanding())
	grants := 0
	for _, g := range guests {
		grants += g.Dom.LiveGrants()
	}
	f.exact["guest live grants"] = uint64(grants)
}

// tieProbe is one direction of datagram traffic. Every payload carries its
// sequence number, so the receiver knows when it was sent (its latency)
// and checks it arrived once and intact. The checksum is a sum, blind to
// arrival order: two frames of one flow that reach a stage at one instant
// may swap under reversed ties (ROADMAP item 10).
type tieProbe struct {
	name  string
	sent  []sim.Time // send time by sequence number
	seen  []bool
	lat   []float64
	bytes uint64
	sum   uint64
	bad   uint64

	start, last, busy sim.Time // the open burst's start and last arrival; closed bursts' sum
}

func newTieProbe(name string) *tieProbe { return &tieProbe{name: name} }

// reset forgets the warm-up: what is reported from here on is measured.
func (p *tieProbe) reset() { *p = tieProbe{name: p.name, sent: p.sent, seen: p.seen} }

// payload returns seq's datagram of size bytes.
func tiePayload(seq uint64, size int) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, seq)
	for i := 8; i < size; i++ {
		b[i] = byte(seq*7 + uint64(i)*31)
	}
	return b
}

func (p *tieProbe) send(from *netstack.Stack, dst netpkt.IP, dstPort, srcPort uint16, size int) {
	seq := uint64(len(p.sent))
	p.sent = append(p.sent, from.Engine().Now())
	p.seen = append(p.seen, false)
	from.SendUDP(dst, dstPort, srcPort, tiePayload(seq, size))
}

// recv is the probe's receive handler on stack at.
func (p *tieProbe) recv(at *netstack.Stack) func(netstack.UDPPacket) {
	return func(pk netstack.UDPPacket) {
		now := at.Engine().Now()
		seq := binary.LittleEndian.Uint64(pk.Data)
		if seq >= uint64(len(p.sent)) || p.seen[seq] || !slices.Equal(pk.Data, tiePayload(seq, len(pk.Data))) {
			p.bad++
			return
		}
		p.seen[seq] = true
		p.lat = append(p.lat, float64(now-p.sent[seq]))
		p.bytes += uint64(len(pk.Data))
		p.sum += hashBlk(pk.Data, uint64(pk.Src[3])<<16|uint64(pk.SrcPort))
		p.last = now
	}
}

// begin and end bracket a burst: its busy time runs from the first send to
// the last arrival.
func (p *tieProbe) begin(eng *sim.Engine) { p.start, p.last = eng.Now(), eng.Now() }
func (p *tieProbe) end()                  { p.busy += p.last - p.start }

// report adds the probe's figures: what arrived exactly, how fast and how
// late within the band.
func (p *tieProbe) report(f *tieFigures) {
	lost := uint64(0)
	for _, ok := range p.seen {
		if !ok {
			lost++
		}
	}
	f.exact[p.name+" bytes"] = p.bytes
	f.exact[p.name+" checksum"] = p.sum
	f.zero[p.name+" lost or bad"] = lost + p.bad
	f.sim[p.name+" p50 ns"] = percentile(p.lat, 50)
	f.sim[p.name+" p99 ns"] = percentile(p.lat, 99)
	if p.busy > 0 {
		f.sim[p.name+" MB/s"] = float64(p.bytes) / p.busy.Seconds() / 1e6
	}
}

// percentile is the nearest-rank p-th percentile (0 < p < 100) of samples,
// which it sorts in place; 0 for none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return samples[int(math.Ceil(p/100*float64(len(samples))))-1]
}

// TestTieOrderInvariance holds the model to one rule: no figure may
// depend on which of two same-instant events runs first. Each rig kind
// runs its workload twice, once in the default order and once under
// ReverseTies from its first event on (the highest shard wins a
// cross-shard tie, and a shard runs its same-instant events newest
// first). Every burst starts from an idle machine (tieDrain). Byte
// totals, checksums and leak counters must be identical; every simulated
// latency and throughput must stay within tieBand. A mechanism that starts
// reading the tie shows up here as a figure that moves.
func TestTieOrderInvariance(t *testing.T) {
	rigs := []struct {
		name string
		run  func(t *testing.T, reversed bool) *tieFigures
	}{
		{"net 1 queue", tieNetRig(1)},
		{"net 4 queues", tieNetRig(4)},
		{"blk 4 queues", tieBlkRig},
		{"fleet 64 tenants", tieFleetRig},
	}
	worst, worstAt := 0.0, ""
	for _, r := range rigs {
		t.Run(r.name, func(t *testing.T) {
			base, rev := r.run(t, false), r.run(t, true)
			for _, k := range sortedKeys(base.exact) {
				if got, want := rev.exact[k], base.exact[k]; got != want {
					t.Errorf("%s: %d with ties reversed, %d without", k, got, want)
				}
			}
			for _, k := range sortedKeys(base.zero) {
				if base.zero[k] != 0 || rev.zero[k] != 0 {
					t.Errorf("%s: %d, and %d with ties reversed", k, base.zero[k], rev.zero[k])
				}
			}
			if len(rev.exact) != len(base.exact) || len(rev.sim) != len(base.sim) {
				t.Fatalf("the two runs report different figures")
			}
			for _, k := range sortedKeys(base.sim) {
				want, got := base.sim[k], rev.sim[k]
				drift := math.Abs(got-want) / want
				if want <= 0 || math.IsNaN(drift) {
					t.Errorf("%s: %v without reversed ties: nothing measured", k, want)
					continue
				}
				if drift > worst {
					worst, worstAt = drift, r.name+": "+k
				}
				if drift > tieBand {
					t.Errorf("%s: %.6g with ties reversed, %.6g without: drift %.2e over the %.0e band", k, got, want, drift, tieBand)
				}
			}
		})
	}
	t.Logf("largest drift %.2e (%s); band %.0e", worst, worstAt, tieBand)
}

// checkTies fails unless eng runs two same-instant events newest first
// exactly when reversed: the check that ReverseTies reached the engine the
// rig runs on.
func checkTies(t *testing.T, eng *sim.Engine, reversed bool) {
	t.Helper()
	order := 0
	eng.Schedule(eng.Now(), func() { order = order*10 + 1 })
	eng.Schedule(eng.Now(), func() { order = order*10 + 2 })
	eng.RunUntil(eng.Now())
	if (order == 21) != reversed {
		t.Fatalf("ties reversed %v, but same-instant events ran in the other order", reversed)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// tieWarm rounds of each workload run before tieRounds are measured.
const tieWarm, tieRounds = 2, 16

// tieDrain runs a burst to the end and then idles the machine for tieGap,
// so the next burst starts with every vCPU asleep. Back to back, a burst
// starts inside or outside the event channel's 75 us warm window
// (xen/evtchn.go) by a margin the previous burst's tail sets, and reversed
// ties move that tail by nanoseconds: the threshold turns that into a
// burst 25 % slower or faster (ROADMAP item 10).
func tieDrain(eng *sim.Engine) {
	eng.Run()
	eng.RunFor(tieGap)
}

const tieGap = sim.Millisecond

// tieNetRig is the single-guest network rig with the given queue count:
// rounds of a burst of 128 1400 B datagrams each way and a wave of 512
// 128 B datagrams over 64 flows each way, then 64 B request-response
// round trips with 100 us of think time.
func tieNetRig(queues int) func(*testing.T, bool) *tieFigures {
	return func(t *testing.T, reversed bool) *tieFigures {
		const seed = 0x71e5
		tb := NewTestbed(seed)
		if queues > 1 {
			tb = NewTestbedSharded(seed, queues)
		}
		if reversed {
			tb.System.Eng.ReverseTies()
		}
		rig, err := buildNetworkRig(tb, NetworkRigConfig{Kind: KindKite, Seed: seed, Queues: queues})
		if err != nil {
			t.Fatal(err)
		}
		checkTies(t, tb.System.Eng, reversed)
		eng, guest, client := rig.System.Eng, rig.Guest.Stack, rig.Client.Stack
		f := newTieFigures()

		streamTx, streamRx := newTieProbe("stream tx"), newTieProbe("stream rx")
		waveTx, waveRx := newTieProbe("wave tx"), newTieProbe("wave rx")
		mustBindUDP(t, client, 9000, streamTx.recv(client))
		mustBindUDP(t, guest, 9000, streamRx.recv(guest))
		mustBindUDP(t, client, 9001, waveTx.recv(client))
		mustBindUDP(t, guest, 9001, waveRx.recv(guest))
		burst := func(p *tieProbe, n, size, flows int, from *netstack.Stack, dst netpkt.IP, port uint16) {
			p.begin(eng)
			for k := 0; k < n; k++ {
				p.send(from, dst, port, uint16(20000+k%flows), size)
			}
			tieDrain(eng)
			p.end()
		}
		probes := []*tieProbe{streamTx, streamRx, waveTx, waveRx}
		for i := 0; i < tieWarm+tieRounds; i++ {
			if i == tieWarm {
				for _, p := range probes {
					p.reset()
				}
			}
			burst(streamTx, 128, 1400, 1, guest, rig.ClientIP, 9000)
			burst(streamRx, 128, 1400, 1, client, rig.GuestIP, 9000)
			burst(waveTx, 512, 128, 64, guest, rig.ClientIP, 9001)
			burst(waveRx, 512, 128, 64, client, rig.GuestIP, 9001)
		}

		const rrTrips = 200
		rr := newTieProbe("rr")
		left := rrTrips + 10*tieWarm
		mustBindUDP(t, guest, 9002, func(p netstack.UDPPacket) { guest.SendUDP(p.Src, p.SrcPort, 9002, p.Data) })
		next := func() { rr.send(client, rig.GuestIP, 9002, 9003, 64) }
		echo := rr.recv(client)
		mustBindUDP(t, client, 9003, func(p netstack.UDPPacket) {
			echo(p)
			if left--; left == rrTrips {
				rr.reset()
				rr.begin(eng)
			}
			if left > 0 {
				eng.After(100*sim.Microsecond, next)
			}
		})
		next()
		eng.Run()
		rr.end()

		for _, p := range append(probes, rr) {
			p.report(f)
		}
		f.leaks(rig.System, []*Guest{rig.Guest})
		return f
	}
}

// tieFleetRig is 64 tenants on 4 lanes: waves in which every tenant sends
// the client one 128 B datagram, and waves in which the client sends every
// tenant one.
func tieFleetRig(t *testing.T, reversed bool) *tieFigures {
	cfg := FleetConfig{Guests: 64, Lanes: 4, Seed: 0xf1ee7}
	tb := NewTestbedSharded(cfg.Seed, cfg.Lanes)
	if reversed {
		tb.System.Eng.ReverseTies()
	}
	rig, err := buildFleetRig(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTies(t, tb.System.Eng, reversed)
	eng, client := rig.System.Eng, rig.Client.Stack
	f := newTieFigures()
	up, down := newTieProbe("tenants to client"), newTieProbe("client to tenants")
	mustBindUDP(t, client, 9000, up.recv(client))
	for _, g := range rig.Guests {
		mustBindUDP(t, g.Stack, 9000, down.recv(g.Stack))
	}
	for w := 0; w < tieWarm+tieRounds; w++ {
		if w == tieWarm {
			up.reset()
			down.reset()
		}
		up.begin(eng)
		for _, g := range rig.Guests {
			up.send(g.Stack, rig.ClientIP, 9000, uint16(12000+w%64), 128)
		}
		tieDrain(eng)
		up.end()
		down.begin(eng)
		for i := range rig.Guests {
			down.send(client, rig.GuestIPOf(i), 9000, uint16(13000+w%64), 128)
		}
		tieDrain(eng)
		down.end()
	}
	up.report(f)
	down.report(f)
	f.leaks(rig.System, rig.Guests)
	return f
}

// tieBlkRig is a 4-queue vbd under waves of 64 random 4 KiB writes to
// distinct blocks beside 4 sequential 256 KiB reads of a second window,
// then a read-back of the written window.
func tieBlkRig(t *testing.T, reversed bool) *tieFigures {
	const (
		seed   = 0xb1c
		block  = 4 << 10
		chunk  = 256 << 10
		blocks = 1024        // the write window: 4 MiB from sector 0
		rBase  = blocks * 8  // the read window's first sector
		chunks = 16          // the read window: 4 MiB
		secs   = chunk / 512 // sectors per chunk
	)
	tb := NewTestbed(seed)
	if reversed {
		tb.System.Eng.ReverseTies()
	}
	rig, err := buildStorageRig(tb, StorageRigConfig{Kind: KindKite, Seed: seed, Queues: 4, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	checkTies(t, tb.System.Eng, reversed)
	eng, disk := rig.System.Eng, rig.Guest.Disk
	f := newTieFigures()
	var failed uint64
	for c := 0; c < chunks; c++ {
		disk.WriteSectors(int64(rBase+c*secs), patternSeed(chunk, byte(c)), func(err error) {
			if err != nil {
				failed++
			}
		})
	}
	eng.Run()

	var wLat, rLat []float64
	var readSum, readBytes uint64
	var busy sim.Time
	rng := sim.NewRand(seed)
	for w := 0; w < tieWarm+tieRounds; w++ {
		if w == tieWarm {
			wLat, rLat = nil, nil
			readSum, readBytes, busy = 0, 0, 0
		}
		start, last := eng.Now(), eng.Now()
		picked := map[uint64]bool{}
		for k := 0; k < 64; k++ {
			b := rng.Uint64() % blocks
			for picked[b] {
				b = rng.Uint64() % blocks
			}
			picked[b] = true
			at := eng.Now()
			disk.WriteSectors(int64(b*8), patternSeed(block, byte(w*64+k)), func(err error) {
				if err != nil {
					failed++
				}
				wLat = append(wLat, float64(eng.Now()-at))
				last = max(last, eng.Now())
			})
		}
		for k := 0; k < 4; k++ {
			c := (w*4 + k) % chunks
			at := eng.Now()
			disk.ReadSectors(int64(rBase+c*secs), chunk, func(data []byte, err error) {
				if err != nil || !slices.Equal(data, patternSeed(chunk, byte(c))) {
					failed++
				}
				rLat = append(rLat, float64(eng.Now()-at))
				readSum += hashBlk(data, uint64(c))
				readBytes += uint64(len(data))
				last = max(last, eng.Now())
			})
		}
		tieDrain(eng)
		busy += last - start
	}
	var image uint64
	for c := 0; c < blocks*block/chunk; c++ {
		disk.ReadSectors(int64(c*secs), chunk, func(data []byte, err error) {
			if err != nil {
				failed++
			}
			image += hashBlk(data, uint64(c))
		})
	}
	eng.Run()

	f.zero["blk failed ops"] = failed
	f.exact["blk read bytes"] = readBytes
	f.exact["blk read checksum"] = readSum
	f.exact["blk written window checksum"] = image
	f.sim["blk write p50 ns"] = percentile(wLat, 50)
	f.sim["blk write p99 ns"] = percentile(wLat, 99)
	f.sim["blk read p50 ns"] = percentile(rLat, 50)
	f.sim["blk read p99 ns"] = percentile(rLat, 99)
	f.sim["blk MB/s"] = float64(tieRounds*(64*block+4*chunk)) / busy.Seconds() / 1e6
	f.leaks(rig.System, []*Guest{rig.Guest})
	return f
}

// hashBlk is FNV-1a over data, salted with where it was read from.
func hashBlk(data []byte, at uint64) uint64 {
	h := uint64(14695981039346656037) ^ at
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func mustBindUDP(t *testing.T, s *netstack.Stack, port uint16, fn func(netstack.UDPPacket)) {
	t.Helper()
	if err := s.BindUDP(port, fn); err != nil {
		t.Fatalf("bind %d: %v", port, err)
	}
}
