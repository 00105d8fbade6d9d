package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"kite/internal/core"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// Seeds. defaultSeed is what a bare run uses and what the reference numbers
// in README.md were taken with; heldOutSeed is never used while a change is
// written, so a claim can be re-checked on inputs it was not tuned on.
const (
	defaultSeed uint64 = 0xbe7c4
	heldOutSeed uint64 = 0x5eed2
)

// quickDivisor shrinks every slice for -quick and the package tests: the
// same code paths and checks at one fiftieth of the work.
const quickDivisor = 50

// spec is one workload. iters, warm and period are fixed constants — a
// slice is the same work on any two commits, never auto-calibrated. Inputs
// are a pure function of (seed, iteration mod period), and iters and warm
// are whole periods, so every slice replays the same inputs from the same
// simulated state and its simulated statistics repeat exactly.
type spec struct {
	name string
	op   string // what one op is; BENCHMARK.json and README.md say why it was chosen

	iters  int // iterations per slice (≈1 s on the 2-vCPU reference box)
	warm   int // warm-up iterations before the first slice
	period int // input period, in iterations
	perOp  int // ops per iteration
	guests int // fleet size (fleet_1024 only)

	setupReps int // rigs built for setup_s
	// linuxRatio names the figure sim_kite_linux_ratio compares between a
	// Kite and a Linux leg, with the paper's own value; empty where the
	// paper's artifact has no such experiment.
	linuxRatio string
	paper      string

	build func(s *spec, kind core.DriverKind, seed uint64) (*rig, error)
	// create is build without the handshakes, for the set-up split.
	create func(s *spec, seed uint64) error
	load   func(s *spec, r *rig, seed uint64, t *tally, tr *tracer) loader
}

// loader generates one workload's closed-loop load on a built rig.
type loader interface {
	// run executes iterations [0, iters): submit, then drain the engine.
	run(iters int)
}

// verifier is a loader with end-of-run checks that need device traffic of
// their own (reading written blocks back); they run after the last slice.
type verifier interface{ verify() error }

var specs = []*spec{
	{
		name: "net_stream", op: "delivered 1400 B datagram",
		iters: 5000, warm: 256, period: 1, perOp: 2 * streamBurst, setupReps: 101,
		linuxRatio: "sim_ops_per_sec", paper: "Fig. 6: parity, about 1.0",
		build:  buildNet(1),
		create: createNet(1), load: newStream,
	},
	{
		name: "net_rr", op: "64 B UDP round trip",
		iters: 800000, warm: 20000, period: 1, perOp: 1, setupReps: 101,
		linuxRatio: "sim_lat_p50_us", paper: "Fig. 7 netperf: 0.10/0.18 = 0.56",
		build:  buildNet(1),
		create: createNet(1), load: newRR,
	},
	{
		name: "net_mq4", op: "delivered 128 B datagram",
		iters: 1920, warm: 128, period: 1, perOp: 512, setupReps: 101,
		build:  buildNet(4),
		create: createNet(4), load: newWave,
	},
	{
		name: "fleet_1024", op: "delivered 128 B datagram",
		iters: 250, warm: 50, period: 50, guests: 1024, setupReps: 1,
		build: func(s *spec, kind core.DriverKind, seed uint64) (*rig, error) {
			r, err := core.NewFleetRig(core.FleetConfig{Guests: s.guests, Lanes: 4, Seed: seed})
			if err != nil {
				return nil, err
			}
			return newRig(r.Testbed, r.ND, nil, r.Guests), nil
		},
		create: createFleet, load: newWave,
	},
	{
		name: "blk_mixed", op: "completed block request",
		iters: 3520, warm: 128, period: blkPeriod, perOp: blkWrites + blkReads, setupReps: 101,
		linuxRatio: "sim_payload_mb_per_sec", paper: "Fig. 11/12: parity, 0.94 to 1.06",
		build: func(s *spec, kind core.DriverKind, seed uint64) (*rig, error) {
			r, err := core.NewStorageRig(core.StorageRigConfig{
				Kind: kind, Seed: seed, Queues: blkQueues, DiskBytes: blkDisk,
			})
			if err != nil {
				return nil, err
			}
			return newRig(r.Testbed, nil, r.SD, []*core.Guest{r.Guest}), nil
		},
		create: createStorage, load: newBlk,
	},
}

// buildNet is the single-guest network rig: NewNetworkRig's serial engine
// for one queue, the sharded cluster rig for more.
func buildNet(queues int) func(*spec, core.DriverKind, uint64) (*rig, error) {
	return func(_ *spec, kind core.DriverKind, seed uint64) (*rig, error) {
		cfg := core.NetworkRigConfig{Kind: kind, Seed: seed}
		if queues > 1 {
			cfg.Queues = queues
		}
		r, err := core.NewNetworkRigCfg(cfg)
		if err != nil {
			return nil, err
		}
		return newRig(r.Testbed, r.ND, nil, []*core.Guest{r.Guest}), nil
	}
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// opsPerIter is perOp, or the fleet size where every tenant sends once.
func (s *spec) opsPerIter() int {
	if s.guests > 0 {
		return s.guests
	}
	return s.perOp
}

// scaled returns a copy with 1/div of the work, rounded up to whole periods.
func (s *spec) scaled(div int) *spec {
	c := *s
	periods := func(n int) int {
		p := (n/div + s.period - 1) / s.period
		return max(p, 1) * s.period
	}
	c.iters, c.warm = periods(s.iters), periods(s.warm)
	return &c
}

// tally is what a loader counts; the harness checks it at slice boundaries.
// Tags are 64-bit sequence numbers carried in every payload; sums of tags
// and of sampled full-payload hashes are order-independent, so one compare
// proves each submitted payload arrived once and intact.
type tally struct {
	attempted, completed uint64
	payload              uint64 // useful bytes delivered or completed
	bad                  uint64 // completions with an error or malformed content
	tagSent, tagGot      uint64
	hashSent, hashGot    uint64
	lat                  *hist // per-op simulated latency, ns
	submitAt             sim.Time
	seq                  uint64 // next sequence tag
}

func (t *tally) check() error {
	switch {
	case t.bad != 0:
		return fmt.Errorf("%d malformed or failed completions", t.bad)
	case t.completed != t.attempted:
		return fmt.Errorf("completed %d of %d ops", t.completed, t.attempted)
	case t.tagGot != t.tagSent:
		return fmt.Errorf("sequence-tag sum %#x, want %#x", t.tagGot, t.tagSent)
	case t.hashGot != t.hashSent:
		return fmt.Errorf("payload FNV sum %#x, want %#x", t.hashGot, t.hashSent)
	}
	return nil
}

// hashBytes is FNV-1a over little-endian 64-bit words (a short tail is
// zero-padded): eight times fewer multiplies than the byte-wise form.
func hashBytes(b []byte) uint64 {
	d := fnvOffset
	for ; len(b) >= 8; b = b[8:] {
		d.u64(binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		d.u64(binary.LittleEndian.Uint64(tail[:]))
	}
	return uint64(d)
}

// fillPattern writes the seed's payload pattern.
func fillPattern(b []byte, seed uint64) {
	rng := sim.NewRand(seed ^ 0x9a7c0de)
	rng.Bytes(b)
}

// datagram is a reusable UDP payload: seeded body, sequence tag in the last
// eight bytes. SendUDP copies it into a frame synchronously, so one buffer
// serves every send. Payloads whose tag is a multiple of hashEvery are
// hashed in full on both sides; the rest are checked by tag and length.
type datagram struct {
	buf       []byte
	hashEvery uint64
}

func newDatagram(size int, seed uint64) datagram {
	d := datagram{buf: make([]byte, size), hashEvery: 1}
	if size > 512 {
		// A full hash of a 1400 B payload costs a fifth of the simulated
		// frame itself; sampling keeps the harness's share near 1 %.
		d.hashEvery = 16
	}
	fillPattern(d.buf, seed)
	return d
}

// stamp tags the payload for the next send and accounts for it.
func (d datagram) stamp(t *tally) []byte {
	seq := t.seq
	t.seq++
	binary.LittleEndian.PutUint64(d.buf[len(d.buf)-8:], seq)
	t.attempted++
	t.tagSent += seq
	if seq%d.hashEvery == 0 {
		t.hashSent += hashBytes(d.buf)
	}
	return d.buf
}

// sink returns the receive handler matching stamp.
func (d datagram) sink(t *tally, eng *sim.Engine) func(netstack.UDPPacket) {
	size, every := len(d.buf), d.hashEvery
	return func(p netstack.UDPPacket) {
		if len(p.Data) != size {
			t.bad++
			return
		}
		seq := binary.LittleEndian.Uint64(p.Data[size-8:])
		t.completed++
		t.payload += uint64(size)
		t.tagGot += seq
		if seq%every == 0 {
			t.hashGot += hashBytes(p.Data)
		}
		t.lat.add(int64(eng.Now() - t.submitAt))
	}
}

const (
	clientPort = 9000
	guestPort  = 9001
)

// flowPorts derives the workload's source ports from the seed.
func flowPorts(seed uint64, n int) []uint16 {
	base := 10000 + uint16(seed%40000)
	ports := make([]uint16, n)
	for i := range ports {
		ports[i] = base + uint16(i)
	}
	return ports
}

// stream is net_stream: a Tx burst then an Rx burst per iteration.
type stream struct {
	r        *rig
	t        *tally
	tr       *tracer
	dg       datagram
	clientIP netpkt.IP
	guestIP  netpkt.IP
	srcPort  uint16
}

const streamBurst = 128

func newStream(s *spec, r *rig, seed uint64, t *tally, tr *tracer) loader {
	l := &stream{r: r, t: t, tr: tr, dg: newDatagram(1400, seed), srcPort: flowPorts(seed, 1)[0]}
	l.clientIP, l.guestIP = r.client.Stack.IP(), r.guests[0].Stack.IP()
	mustBind(r.client.Stack, clientPort, l.dg.sink(t, r.eng))
	mustBind(r.guests[0].Stack, guestPort, l.dg.sink(t, r.eng))
	return l
}

func (l *stream) run(iters int) {
	guest, client := l.r.guests[0].Stack, l.r.client.Stack
	for i := 0; i < iters; i++ {
		l.burst(spanTx, guest, l.clientIP, clientPort)
		l.burst(spanRx, client, l.guestIP, guestPort)
	}
}

// burst sends streamBurst datagrams from one stack and drains the engine.
func (l *stream) burst(dir spanKind, from *netstack.Stack, dst netpkt.IP, dstPort uint16) {
	eng := l.r.eng
	half := l.tr.begin(dir)
	l.t.submitAt = eng.Now()
	sub := l.tr.begin(spanSubmit)
	for k := 0; k < streamBurst; k++ {
		from.SendUDP(dst, dstPort, l.srcPort, l.dg.stamp(l.t))
	}
	l.tr.end(sub)
	dr := l.tr.begin(spanDrain)
	eng.Run()
	l.tr.end(dr)
	l.tr.end(half)
}

// rr is net_rr: one 64 B request outstanding; the guest echoes; the client
// issues the next request 100 us of simulated time after each reply.
type rr struct {
	r       *rig
	t       *tally
	tr      *tracer
	dg      datagram
	left    int
	guestIP netpkt.IP
	srcPort uint16
	next    func()
}

const rrThink = 100 * sim.Microsecond

func newRR(s *spec, r *rig, seed uint64, t *tally, tr *tracer) loader {
	l := &rr{r: r, t: t, tr: tr, dg: newDatagram(64, seed), srcPort: flowPorts(seed, 1)[0]}
	l.guestIP = r.guests[0].Stack.IP()
	guest, client, eng := r.guests[0].Stack, r.client.Stack, r.eng
	mustBind(guest, guestPort, func(p netstack.UDPPacket) {
		guest.SendUDP(p.Src, p.SrcPort, guestPort, p.Data)
	})
	reply := l.dg.sink(t, eng)
	l.next = func() {
		t.submitAt = eng.Now()
		client.SendUDP(l.guestIP, guestPort, l.srcPort, l.dg.stamp(t))
	}
	mustBind(client, l.srcPort, func(p netstack.UDPPacket) {
		reply(p)
		if l.left--; l.left > 0 {
			eng.After(rrThink, l.next)
		}
	})
	return l
}

func (l *rr) run(iters int) {
	l.left = iters
	sub := l.tr.begin(spanSubmit)
	l.next()
	l.tr.end(sub)
	dr := l.tr.begin(spanDrain)
	l.r.eng.Run()
	l.tr.end(dr)
}

// wave is net_mq4 and fleet_1024: every sender emits towards the client,
// then the engine drains. On the single-guest rig one guest sends perOp
// datagrams over 64 flows; on the fleet every tenant sends one.
type wave struct {
	s        *spec
	r        *rig
	t        *tally
	tr       *tracer
	dg       datagram
	ports    []uint16
	clientIP netpkt.IP
}

const (
	waveFlows = 64
	// fleetAgeEvery and fleetAgeIdle put FDB aging beside lookups on the
	// same table; the idle horizon is far beyond any run, so nothing expires.
	fleetAgeEvery = 50
	fleetAgeIdle  = 3600 * sim.Second
)

func newWave(s *spec, r *rig, seed uint64, t *tally, tr *tracer) loader {
	l := &wave{s: s, r: r, t: t, tr: tr, dg: newDatagram(128, seed), ports: flowPorts(seed, waveFlows)}
	l.clientIP = r.client.Stack.IP()
	mustBind(r.client.Stack, clientPort, l.dg.sink(t, r.eng))
	return l
}

func (l *wave) run(iters int) {
	eng := l.r.eng
	for i := 0; i < iters; i++ {
		l.t.submitAt = eng.Now()
		sub := l.tr.begin(spanSubmit)
		if l.s.guests > 0 {
			port := l.ports[i%l.s.period%waveFlows]
			for _, g := range l.r.guests {
				g.Stack.SendUDP(l.clientIP, clientPort, port, l.dg.stamp(l.t))
			}
		} else {
			guest := l.r.guests[0].Stack
			for k := 0; k < l.s.perOp; k++ {
				guest.SendUDP(l.clientIP, clientPort, l.ports[k%waveFlows], l.dg.stamp(l.t))
			}
		}
		l.tr.end(sub)
		dr := l.tr.begin(spanDrain)
		eng.Run()
		l.tr.end(dr)
		if l.s.guests > 0 && i%fleetAgeEvery == fleetAgeEvery-1 {
			age := l.tr.begin(spanAge)
			if n := l.r.nd.Bridge.AgeFDB(fleetAgeIdle); n != 0 {
				l.t.bad += uint64(n)
			}
			l.tr.end(age)
		}
	}
}

// blk is blk_mixed. The vbd holds two 64 MiB windows, both fully written in
// warm-up so the NVMe sparse store never grows inside a slice: window W
// takes the random 4 KiB writes, window R serves the sequential 256 KiB
// reads. Every 4 KiB block starts with its own block number and a version,
// so a read identifies and proves itself without per-request context.
type blk struct {
	r    *rig
	t    *tally
	tr   *tracer
	seed uint64
	rng  *sim.Rand

	wbuf     [blkWrites][]byte // one payload per in-flight write
	version  []uint64          // last version written, per block of W
	picked   []uint32          // wave stamp per block of W: no block twice in one wave
	waveNo   uint32
	chunkSum []uint64 // hashBytes of each 256 KiB chunk of R
	body     []byte   // the seed's 4 KiB pattern

	wcb func(error)
	rcb func([]byte, error)
}

const (
	blkQueues   = 4
	blkDisk     = 1 << 30
	blkWrites   = 64
	blkReads    = 4
	blkBlock    = 4 << 10
	blkChunk    = 256 << 10
	blkWindow   = 64 << 20
	blkBlocks   = blkWindow / blkBlock // blocks per window
	blkChunks   = blkWindow / blkChunk
	blkPerChunk = blkChunk / blkBlock
	blkSectors  = blkBlock / 512
	blkRBase    = blkBlocks // first block of window R
	// blkHashEvery samples the full-payload hash of reads: hashing every
	// 256 KiB completion would cost a tenth of the wave.
	blkHashEvery = 64
	// blkPeriod waves walk window R exactly once (64 x 4 chunks = 256).
	blkPeriod = blkChunks / blkReads
)

func newBlk(s *spec, r *rig, seed uint64, t *tally, tr *tracer) loader {
	l := &blk{r: r, t: t, tr: tr, seed: seed, rng: sim.NewRand(seed),
		version: make([]uint64, blkBlocks), picked: make([]uint32, blkBlocks),
		chunkSum: make([]uint64, blkChunks), body: make([]byte, blkBlock)}
	fillPattern(l.body, seed)
	for i := range l.wbuf {
		l.wbuf[i] = append([]byte(nil), l.body...)
	}
	eng := r.eng
	l.wcb = func(err error) {
		if err != nil {
			t.bad++
			return
		}
		t.completed++
		t.payload += blkBlock
		t.lat.add(int64(eng.Now() - t.submitAt))
	}
	l.rcb = func(data []byte, err error) {
		if err != nil || len(data) != blkChunk {
			t.bad++
			return
		}
		first := l.blockOf(data)
		chunk := (first - blkRBase) / blkPerChunk
		if first < blkRBase || (first-blkRBase)%blkPerChunk != 0 || chunk >= blkChunks {
			t.bad++
			return
		}
		for b := uint64(1); b < blkPerChunk; b++ {
			if l.blockOf(data[b*blkBlock:]) != first+b {
				t.bad++
				return
			}
		}
		t.completed++
		t.payload += blkChunk
		t.tagGot += chunk
		if chunk%blkHashEvery == 0 {
			t.hashGot += hashBytes(data)
		}
		t.lat.add(int64(eng.Now() - t.submitAt))
	}
	l.prewrite()
	return l
}

// header layout of every block: [0:8] block number xor seed, [8:16] version.
func (l *blk) stampBlock(b []byte, block, version uint64) {
	binary.LittleEndian.PutUint64(b[0:8], block^l.seed)
	binary.LittleEndian.PutUint64(b[8:16], version)
}

func (l *blk) blockOf(b []byte) uint64 { return binary.LittleEndian.Uint64(b[0:8]) ^ l.seed }

// prewrite fills both windows, 256 KiB per request, and records each R
// chunk's hash. It is part of warm-up: every store block the slices touch
// exists before the first one starts.
func (l *blk) prewrite() {
	disk, eng := l.r.guests[0].Disk, l.r.eng
	buf := make([]byte, blkChunk)
	failed := false
	cb := func(err error) { failed = failed || err != nil }
	for chunk := uint64(0); chunk < 2*blkChunks; chunk++ {
		for b := uint64(0); b < blkPerChunk; b++ {
			blk := buf[b*blkBlock : (b+1)*blkBlock]
			copy(blk, l.body)
			l.stampBlock(blk, chunk*blkPerChunk+b, 0)
		}
		if chunk >= blkChunks {
			l.chunkSum[chunk-blkChunks] = hashBytes(buf)
		}
		disk.WriteSectors(int64(chunk*blkChunk/512), buf, cb)
		eng.Run()
	}
	if failed {
		l.t.bad++
	}
}

func (l *blk) run(iters int) {
	disk, eng, t := l.r.guests[0].Disk, l.r.eng, l.t
	for i := 0; i < iters; i++ {
		if i%blkPeriod == 0 {
			// One input period: the offset stream restarts, so every slice
			// (a whole number of periods) issues the same requests.
			l.rng = sim.NewRand(l.seed)
		}
		l.waveNo++
		t.submitAt = eng.Now()
		sub := l.tr.begin(spanSubmit)
		for k := 0; k < blkWrites; k++ {
			block := l.rng.Uint64() % blkBlocks
			for l.picked[block] == l.waveNo {
				block = l.rng.Uint64() % blkBlocks
			}
			l.picked[block] = l.waveNo
			l.version[block] = t.seq + 1
			l.stampBlock(l.wbuf[k], block, t.seq+1)
			t.seq++
			t.attempted++
			disk.WriteSectors(int64(block*blkSectors), l.wbuf[k], l.wcb)
		}
		for k := 0; k < blkReads; k++ {
			chunk := uint64(i%blkPeriod*blkReads+k) % blkChunks
			t.attempted++
			t.tagSent += chunk
			if chunk%blkHashEvery == 0 {
				t.hashSent += l.chunkSum[chunk]
			}
			disk.ReadSectors(int64((blkRBase+chunk*blkPerChunk)*blkSectors), blkChunk, l.rcb)
		}
		l.tr.end(sub)
		dr := l.tr.begin(spanDrain)
		eng.Run()
		l.tr.end(dr)
	}
}

// verify reads window W back and checks every block against the shadow
// table: block reads return the last pattern written.
func (l *blk) verify() error {
	disk, eng := l.r.guests[0].Disk, l.r.eng
	var firstErr error
	for chunk := uint64(0); chunk < blkChunks; chunk++ {
		base := chunk * blkPerChunk
		disk.ReadSectors(int64(base*blkSectors), blkChunk, func(data []byte, err error) {
			if firstErr != nil {
				return
			}
			if err != nil || len(data) != blkChunk {
				firstErr = fmt.Errorf("read-back of chunk %d: %v (%d bytes)", chunk, err, len(data))
				return
			}
			for b := uint64(0); b < blkPerChunk; b++ {
				got := data[b*blkBlock : (b+1)*blkBlock]
				ver := binary.LittleEndian.Uint64(got[8:16])
				if l.blockOf(got) != base+b || ver != l.version[base+b] || !bytes.Equal(got[16:], l.body[16:]) {
					firstErr = fmt.Errorf("block %d holds block %d version %d, want version %d",
						base+b, l.blockOf(got), ver, l.version[base+b])
					return
				}
			}
		})
		eng.Run()
	}
	return firstErr
}

func mustBind(s *netstack.Stack, port uint16, fn func(netstack.UDPPacket)) {
	if err := s.BindUDP(port, fn); err != nil {
		panic(err) // a fresh rig has no bound ports: only a harness bug gets here
	}
}
