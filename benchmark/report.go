package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"kite/internal/nic"
	"kite/internal/nvme"
)

// The testbed's device models, for the wire and NVMe busy-time lines of the
// simulated ledger.
var (
	linkCfg = nic.DefaultLink()
	nvmeCfg = nvme.Default970EvoPlus()
)

// metric is one reported number. Clock says which of the two clocks it is
// in: "sim" (simulated time or a deterministic count — must repeat to the
// last digit for a seed) or "host" (time or memory of this Go program —
// noisy, so it comes with quartiles and a sample count).
type metric struct {
	Name  string     `json:"name"`
	Value float64    `json:"value"`
	Unit  string     `json:"unit"`
	Clock string     `json:"clock"`
	Q     *quartiles `json:"quartiles,omitempty"`
	Note  string     `json:"note,omitempty"`
}

func simMetric(name string, v float64, unit string) metric {
	return metric{Name: name, Value: v, Unit: unit, Clock: "sim"}
}

func hostMetric(name string, q quartiles, unit string) metric {
	return metric{Name: name, Value: q.Median, Unit: unit, Clock: "host", Q: &q}
}

// quietMetric is a host time reported as the lower quartile of its readings,
// not their median. What disturbs a timed region on a shared 2-vCPU box (a
// neighbour, a preemption, a page fault) only ever adds time and comes in
// bursts, so across ten processes the lower quartile spreads half as wide as
// the median on the slices and a third as wide on the set-ups; on a quiet
// box the two agree. The median rides along in the note.
func quietMetric(name string, q quartiles, unit string) metric {
	return metric{Name: name, Value: q.Q1, Unit: unit, Clock: "host", Q: &q,
		Note: fmt.Sprintf("lower quartile; median %.6g", q.Median)}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// wallPerOp summarizes wall ns per op over slices.
func wallPerOp(slices []sliceStat) quartiles {
	v := make([]float64, len(slices))
	for i, st := range slices {
		v[i] = float64(st.wallNS) / float64(st.ops)
	}
	return summarize(v)
}

// simFigure returns one of the simulated end-to-end figures of a slice.
func simFigure(st *sliceStat, name string) float64 {
	simSec := float64(st.delta[cSimNow]) / 1e9
	switch name {
	case "sim_ops_per_sec":
		return float64(st.ops) / simSec
	case "sim_payload_mb_per_sec":
		return float64(st.payload) / 1e6 / simSec
	case "sim_lat_p50_us":
		return st.p50 / 1e3
	case "sim_lat_p99_us":
		return st.p99 / 1e3
	case "sim_dd_cpu_ns_per_op":
		return ratio(st.delta[cBusyDD], st.ops)
	}
	panic("benchmark: unknown simulated figure " + name)
}

// ref is the slice the simulated figures are read from: the first one, the
// only index every run has whatever -seconds is. Later slices differ from it
// in the last digits (the stacks draw from their seeded generators), but
// slice 0 of one seed repeats exactly, run after run.
func (res *run) ref() *sliceStat { return &res.untraced[0] }

// tracedPlain returns the traced slices run at the normal worker count, and
// the index of the first of them in res.traced.
func (res *run) tracedPlain() ([]sliceStat, int) {
	if res.workers1 {
		return res.traced[1:], 1
	}
	return res.traced, 0
}

// endToEnd returns the metrics a user of the system would see.
func (res *run) endToEnd() []metric {
	st := res.ref()
	var mallocs, ops uint64
	for _, u := range res.untraced {
		mallocs += u.mallocs
		ops += u.ops
	}
	lat := fmt.Sprintf("n=%d, %d samples beyond p99", st.ops, st.beyond)
	out := []metric{
		quietMetric("setup_s", summarize(res.setup.secs), "s"),
		quietMetric("wall_ns_per_op", wallPerOp(res.untraced), "ns"),
		{Name: "heap_inuse_mb", Value: res.heapMB, Unit: "MB", Clock: "host"},
		{Name: "allocs_per_op", Value: ratio(mallocs, ops), Unit: "count", Clock: "host"},
		simMetric("sim_ops_per_sec", simFigure(st, "sim_ops_per_sec"), "1/s"),
		simMetric("sim_payload_mb_per_sec", simFigure(st, "sim_payload_mb_per_sec"), "MB/s"),
		{Name: "sim_lat_p50_us", Value: simFigure(st, "sim_lat_p50_us"), Unit: "sim_us", Clock: "sim", Note: lat},
		{Name: "sim_lat_p99_us", Value: simFigure(st, "sim_lat_p99_us"), Unit: "sim_us", Clock: "sim", Note: lat},
		simMetric("sim_dd_cpu_ns_per_op", simFigure(st, "sim_dd_cpu_ns_per_op"), "sim_ns"),
		simMetric("ops_failed_share", ratio(res.failed, res.attempts), "ratio"),
	}
	return out
}

// perLayer returns the per-layer ledger of a traced run: counts per op
// (kind A), simulated busy time per op (kind B), micro-driver host time per
// call (kind C) and the in-situ spans.
func (res *run) perLayer() []metric {
	st := res.ref()
	d, n := st.delta, st.ops
	per := func(c counter) float64 { return ratio(d[c], n) }
	perK := func(c counter) float64 { return 1000 * ratio(d[c], n) }

	// sim_kite_linux_ratio goes beyond the paper's artifact on two workloads.
	kl := metric{Name: "sim_kite_linux_ratio", Unit: "ratio", Clock: "sim",
		Note: "unvalidated, no error figure: the paper's artifact has no such experiment"}
	if res.linux != nil {
		kl.Value = simFigure(st, res.s.linuxRatio) / simFigure(res.linux, res.s.linuxRatio)
		kl.Note = fmt.Sprintf("Kite/Linux %s; paper %s", res.s.linuxRatio, res.s.paper)
	}
	overhead := 1.0
	plain, first := res.tracedPlain()
	if u, t := wallPerOp(res.untraced), wallPerOp(plain); u.Q1 > 0 {
		overhead = t.Q1 / u.Q1 // the estimator wall_ns_per_op reports
	}
	out := []metric{
		kl,
		{Name: "trace_overhead_ratio", Value: overhead, Unit: "ratio", Clock: "host",
			Note: "traced / untraced wall_ns_per_op"},
		simMetric("sim.digest_lo32", float64(uint32(st.simSum)), "count"),

		simMetric("sim.events_per_op", per(cSimEvents), "count"),
		simMetric("sim.cluster.windows_per_kop", perK(cClWindows), "count"),
		simMetric("sim.cluster.posts_per_op", per(cClPosted), "count"),
		simMetric("sim.cluster.fused_share", ratio(d[cClFused], d[cClWindows]), "ratio"),
		simMetric("xen.evtchn_sends_per_op", per(cXenEvtchn), "count"),
		simMetric("xen.grant_copies_per_op", per(cXenCopies), "count"),
		simMetric("xen.copied_bytes_per_op", per(cXenCopiedBytes), "B"),
		simMetric("xen.grant_maps_per_op", per(cXenMaps), "count"),
		simMetric("xen.hypercall_sim_ns_per_op", per(cXenHypercallNS), "sim_ns"),
		simMetric("xen.demux.marks_per_scan", ratio(d[cDemuxMarks], d[cDemuxScans]), "count"),
		simMetric("netfront.tx_ring_full_per_kop", perK(cNfTxRingFull), "count"),
		simMetric("netback.rx_persist_hit_share", ratio(d[cNbRxPersistHits], d[cNbRxPersistHits]+d[cNbRxPersistMisses]), "ratio"),
		simMetric("netback.rx_drops_per_kop", perK(cNbRxDrops), "count"),
		simMetric("netback.lane.rounds_per_kop", perK(cLaneRounds), "count"),
		simMetric("bridge.flooded_share", ratio(d[cBrFlooded], d[cBrFlooded]+d[cBrForwarded]), "ratio"),
		simMetric("bridge.fdb_len", float64(d[cFdbLen]), "count"),
		simMetric("nic.tx_drops_per_kop", perK(cNicTxDrops), "count"),
		simMetric("framepool.gets_per_op", per(cFpGets), "count"),
		simMetric("framepool.recycle_share", ratio(d[cFpRecycled], d[cFpGets]), "ratio"),
		simMetric("blkfront.ring_requests_per_op", per(cBfRingRequests), "count"),
		simMetric("blkfront.indirect_share", ratio(d[cBfIndirect], d[cBfRingRequests]), "ratio"),
		simMetric("blkfront.queued_full_per_kop", perK(cBfQueuedFull), "count"),
		simMetric("blkback.device_ops_per_request", ratio(d[cBbDeviceOps], d[cBbRingRequests]), "count"),
		simMetric("blkback.persistent_hit_share", ratio(d[cBbPersistentHits], d[cBbSegments]), "ratio"),
		simMetric("blkback.segments_per_request", ratio(d[cBbSegments], d[cBbRingRequests]), "count"),
		simMetric("nvme.bytes_per_cmd", ratio(d[cNvBytes], d[cNvCmds]), "B"),
		simMetric("nvme.cmds_per_op", per(cNvCmds), "count"),
		simMetric("blkpool.recycle_share", ratio(d[cBpRecycled], d[cBpGets]), "ratio"),
	}

	// Kind B: who was busy, in simulated time. Hypercall time is charged to
	// the calling vCPU, so it is a part of the domain lines, not a summand.
	wire := float64(d[cNicWireBits]) / float64(linkCfg.BitsPerSecond) * 1e9
	nvmeBusy := float64(d[cNvCmds])*float64(nvmeCfg.CmdOverhead) +
		float64(d[cNvReadBytes])/float64(nvmeCfg.ReadBps)*1e9 +
		float64(d[cNvBytes]-d[cNvReadBytes])/float64(nvmeCfg.WriteBps)*1e9
	busy := float64(d[cBusyGuest]+d[cBusyDD]+d[cBusyClient]) + wire + nvmeBusy
	out = append(out,
		simMetric("sim_busy.guest_ns_per_op", per(cBusyGuest), "sim_ns"),
		simMetric("sim_busy.backend_ns_per_op", per(cBusyBackend), "sim_ns"),
		simMetric("sim_busy.bridge_ns_per_op", per(cBusyBridge), "sim_ns"),
		simMetric("sim_busy.client_ns_per_op", per(cBusyClient), "sim_ns"),
		simMetric("sim_busy.hypercall_ns_per_op", per(cXenHypercallNS), "sim_ns"),
		simMetric("sim_busy.wire_ns_per_op", wire/float64(n), "sim_ns"),
		simMetric("sim_busy.nvme_ns_per_op", nvmeBusy/float64(n), "sim_ns"),
		metric{Name: "ledger.sim_unattributed_share", Value: 1 - busy/float64(d[cSimNow]), Unit: "ratio", Clock: "sim",
			Note: "1 - sum(busy)/simulated time: idle-wake and queueing; negative when resources overlap"},
	)

	// Kind C: host ns per call of each layer's exported primitives.
	for _, m := range micros {
		out = append(out, hostMetric(m.name, res.micro[m.name], "ns"))
	}

	// In situ: spans around the harness's own calls, over the traced slices.
	var tot [nSpanKinds]kindTotal
	var tracedOps uint64
	for i := range plain {
		for k, t := range totals(res.tracer.spans, fmt.Sprint(first+i)) {
			tot[k].Count += t.Count
			tot[k].SumNS += t.SumNS
		}
		tracedOps += plain[i].ops
	}
	spanPer := func(k spanKind, ops uint64) float64 { return ratio(uint64(tot[k].SumNS), ops) }
	hostVal := func(name string, v float64, unit string) metric {
		return metric{Name: name, Value: v, Unit: unit, Clock: "host"}
	}
	w1 := 0.0
	if res.workers1 {
		w1 = float64(res.traced[0].wallNS) / float64(res.traced[0].ops)
	}
	wall := wallPerOp(res.untraced).Median
	createS := summarize(res.createSecs).Q1 // as setup_s
	out = append(out,
		hostVal("span.submit_ns_per_op", spanPer(spanSubmit, tracedOps), "ns"),
		hostVal("span.drain_ns_per_op", spanPer(spanDrain, tracedOps), "ns"),
		hostVal("span.tx_ns_per_op", spanPer(spanTx, tracedOps/2), "ns"),
		hostVal("span.rx_ns_per_op", spanPer(spanRx, tracedOps/2), "ns"),
		hostVal("span.age_ns_per_call", ratio(uint64(tot[spanAge].SumNS), uint64(tot[spanAge].Count)), "ns"),
		hostVal("setup.create_s", createS, "s"),
		hostVal("setup.handshake_s", summarize(res.setup.secs).Q1-createS, "s"), // setup_s less create_s
		hostVal("setup.warmup_s", res.setup.warmupS, "s"),
		simMetric("setup.events", float64(res.setup.events), "count"),
		hostVal("sim.cluster.wall_ns_per_op_workers1", w1, "ns"),
		metric{Name: "ledger.host_attributed_share", Value: res.hostAttributed(st) / wall, Unit: "ratio", Clock: "host",
			Note: "sum(count/op x micro-driver ns/call) / wall_ns_per_op; the rest needs in-program tracing"},
	)
	// The three end-to-end figures the driver's contract cannot carry as
	// bounded metrics (they are 0 today) ride with the per-layer set.
	for _, m := range res.endToEnd() {
		if m.Name == "allocs_per_op" || m.Name == "ops_failed_share" {
			out = append(out, m)
		}
	}
	return out
}

// hostAttributed prices the slice's counts with the micro-drivers' ns per
// call: how much of wall_ns_per_op the externally reachable primitives
// explain.
func (res *run) hostAttributed(st *sliceStat) float64 {
	d, n := st.delta, st.ops
	ns := func(name string) float64 { return res.micro[name].Median }
	per := func(c counter) float64 { return ratio(d[c], n) }
	pick := func(cond bool, a, b string) float64 {
		if cond {
			return ns(a)
		}
		return ns(b)
	}
	bigCopies := ratio(d[cXenCopiedBytes], d[cXenCopies]) > 512
	bigFDB := d[cFdbLen] > 64
	sum := per(cSimEvents)*pick(bigFDB, "sim.engine.sched_step_ns.heap64k", "sim.engine.sched_step_ns.heap1k") +
		per(cClWindows)*pick(res.workersN > 1, "sim.cluster.window_ns.workersN", "sim.cluster.window_ns.workers1") +
		per(cClPosted)*ns("sim.cluster.post_ns") +
		per(cXenCopies)*pick(bigCopies, "xen.copygrant_ns.b1400", "xen.copygrant_ns.b128") +
		per(cXenEvtchn)*ns("xen.notify_ns") +
		per(cXenMaps)*ns("xen.map_unmap_ns") +
		per(cDemuxScans)*pick(bigFDB, "xen.demux.scan_ns.pending1024", "xen.demux.scan_ns.pending1") +
		per(cFpGets)*ns("framepool.get_release_ns") +
		(per(cBrForwarded)+per(cBrFlooded))*pick(bigFDB, "bridge.input_ns.fdb1024", "bridge.input_ns.fdb1") +
		per(cNicFrames)*(ns("nic.send_ns")+ns("netpkt.decode_udp_ns")) +
		(per(cNfFrames)+per(cBfRingRequests))*ns("ring.cycle_ns") +
		per(cBpGets)*ns("blkpool.get_release_ns") +
		ratio(d[cNvReadCmds], n)*ns("nvme.readvec_ns.b256k") +
		ratio(d[cNvCmds]-d[cNvReadCmds], n)*ns("nvme.writevec_ns.b4k")
	return sum
}

// printTable writes metrics as aligned rows: name, value, unit, clock,
// quartiles and note.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, m := range ms {
		extra := m.Note
		if m.Q != nil && m.Q.N > 1 {
			extra = strings.TrimSpace(fmt.Sprintf("q1=%.6g q3=%.6g n=%d spread=%.2f%% %s",
				m.Q.Q1, m.Q.Q3, m.Q.N, 100*m.Q.spread(), m.Note))
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s %-5s %s\n", m.Name, m.Value, m.Unit, m.Clock, extra)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(w io.Writer, correct bool, attempted, failed uint64, ms []metric) {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range ms {
		line.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", data)
}
