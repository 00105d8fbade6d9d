package experiments

import (
	"fmt"

	"kite/internal/apps"
	"kite/internal/core"
	"kite/internal/metrics"
	"kite/internal/sim"
	"kite/internal/workload"
)

// Fig6Nuttcp reproduces Figure 6: nuttcp UDP throughput (4 MB window /
// 8 KB buffers) through both network domains. The paper reports ~7 Gbps
// with <1.5% loss on both.
func Fig6Nuttcp(s Scale) *Result {
	res := newResult("FIG6", "nuttcp UDP throughput (8KB datagrams)")
	run := func(kind core.DriverKind) workload.NuttcpResult {
		rig := mustNetRig(kind, 0xF16)
		return await(rig.Testbed.System, 30_000_000, func(done func(workload.NuttcpResult)) {
			workload.Nuttcp(rig.Client, rig.Guest.Stack, 7.05, 8192, s.NuttcpDur, done)
		})
	}
	linux, kite := bothKinds(s, run)
	res.AddPair("throughput", linux.AchievedGbps, kite.AchievedGbps, "Gbps")
	res.AddPair("loss", linux.LossPct, kite.LossPct, "%")
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: ~7 Gbps / <1.5%% loss both; measured %.2f vs %.2f Gbps, %.2f%% vs %.2f%% loss",
			linux.AchievedGbps, kite.AchievedGbps, linux.LossPct, kite.LossPct))
	return res
}

// Fig7Latency reproduces Figure 7: ping, Netperf, and memtier latencies.
// Paper: ping 0.51 vs 0.31 ms, netperf 0.18 vs 0.10 ms, memtier 0.16 vs
// 0.15 ms (Linux vs Kite) — Kite at or below Linux everywhere.
func Fig7Latency(s Scale) *Result {
	res := newResult("FIG7", "network latency (ms)")
	type trio struct{ ping, netperf, memtier float64 }
	run := func(kind core.DriverKind, rep int) trio {
		rig := mustNetRig(kind, 0xF17+uint64(rep))
		var out trio
		stage := 0
		workload.Ping(rig.Client.Stack, rig.GuestIP, s.PingCount, 200*sim.Microsecond, 56,
			func(r workload.PingResult) {
				out.ping = r.AvgRTT.Millis()
				stage = 1
				if err := workload.EchoServer(rig.Guest.Stack, 12865); err != nil {
					panic(err)
				}
				workload.NetperfRR(rig.Client, rig.GuestIP, 12865, s.NetperfTxns,
					100*sim.Microsecond, func(r workload.NetperfResult) {
						out.netperf = r.AvgLatency.Millis()
						stage = 2
						if _, err := apps.NewKVServer(rig.Guest.Stack, 11211); err != nil {
							panic(err)
						}
						workload.Memtier(rig.Client, rig.GuestIP, 11211, s.MemtierOps, 8192, 2,
							func(r workload.MemtierResult) {
								out.memtier = r.AvgLatency.Millis()
								stage = 3
							})
					})
			})
		drive(rig.Testbed.System, func() bool { return stage == 3 }, 60_000_000)
		return out
	}
	var lp, ln, lm, kp, kn, km metrics.Series
	for rep := 0; rep < s.Reps; rep++ {
		rep := rep
		l, k := bothKinds(s, func(kind core.DriverKind) trio { return run(kind, rep) })
		lp.Add(l.ping)
		ln.Add(l.netperf)
		lm.Add(l.memtier)
		kp.Add(k.ping)
		kn.Add(k.netperf)
		km.Add(k.memtier)
	}
	res.AddPair("ping RTT", lp.Mean(), kp.Mean(), "ms")
	res.AddPair("netperf RR", ln.Mean(), kn.Mean(), "ms")
	res.AddPair("memtier", lm.Mean(), km.Mean(), "ms")
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: ping 0.51/0.31, netperf 0.18/0.10, memtier 0.16/0.15 (linux/kite ms)"),
		fmt.Sprintf("memtier RSD: linux %.4f%%, kite %.4f%% (Table 4 reports 0.0167/0.0496)",
			lm.RSD(), km.RSD()))
	return res
}

// Fig8Apache reproduces Figure 8: ApacheBench with file sizes 512 B–1 MB
// (8a) and the detailed 512 KB row (8b). The paper shows near parity with
// Kite marginally faster at 512 KB.
func Fig8Apache(s Scale) *Result {
	res := &Result{ID: "FIG8", Title: "Apache throughput by file size",
		Table: metrics.NewTable("FIG8: ApacheBench (keep-alive, 16 concurrent connections)",
			"file size", "linux MB/s", "kite MB/s", "linux req/s", "kite req/s")}
	sizes := []int{512, 4 << 10, 32 << 10, 128 << 10, 512 << 10, 1 << 20}
	run := func(kind core.DriverKind, size int, rep int) workload.ABResult {
		rig := mustNetRig(kind, 0xF18+uint64(rep))
		srv, err := apps.NewHTTPServer(rig.Guest.Stack, 80)
		if err != nil {
			panic(err)
		}
		srv.AddRandomFile("/f", size, uint64(size))
		return await(rig.Testbed.System, 60_000_000, func(done func(workload.ABResult)) {
			workload.ApacheBench(rig.Client, rig.GuestIP, 80, "/f", s.ABRequests, 16, done)
		})
	}
	for _, size := range sizes {
		size := size
		l, k := bothKinds(s, func(kind core.DriverKind) workload.ABResult { return run(kind, size, 0) })
		res.Pairs = append(res.Pairs, Pair{
			Metric: fmt.Sprintf("tput@%s", sizeName(size)),
			Linux:  l.ThroughputMBps, Kite: k.ThroughputMBps, Unit: "MB/s",
		})
		res.Table.AddRow(sizeName(size),
			metrics.FormatFloat(l.ThroughputMBps), metrics.FormatFloat(k.ThroughputMBps),
			metrics.FormatFloat(l.RequestsPerSec), metrics.FormatFloat(k.RequestsPerSec))
	}
	// Fig 8b detail at 512 KB with RSD reps.
	var lt, kt metrics.Series
	for rep := 0; rep < s.Reps; rep++ {
		rep := rep
		l, k := bothKinds(s, func(kind core.DriverKind) workload.ABResult { return run(kind, 512<<10, rep) })
		lt.Add(l.ThroughputMBps)
		kt.Add(k.ThroughputMBps)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fig 8b @512KB: linux %.1f MB/s kite %.1f MB/s (paper: kite marginally faster)",
			lt.Mean(), kt.Mean()),
		fmt.Sprintf("apache RSD: linux %.4f%% kite %.4f%% (Table 4: 1.20/1.44)", lt.RSD(), kt.RSD()))
	res.Pairs = append(res.Pairs, Pair{Metric: "tput@512KB-rsd",
		Linux: lt.Mean(), Kite: kt.Mean(), Unit: "MB/s"})
	return res
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Fig9Redis reproduces Figure 9: redis-benchmark SET/GET ops/s in pipeline
// mode (-P 1000) for thread counts 5..20. The paper shows near-identical
// rates for both domains.
func Fig9Redis(s Scale) *Result {
	res := &Result{ID: "FIG9", Title: "Redis pipelined SET/GET throughput",
		Table: metrics.NewTable("FIG9: redis-benchmark (pipeline=500)",
			"threads", "linux SET/s", "kite SET/s", "linux GET/s", "kite GET/s")}
	threads := []int{5, 10, 15, 20}
	run := func(kind core.DriverKind, th int, op string) workload.RedisBenchResult {
		rig := mustNetRig(kind, 0xF19)
		if _, err := apps.NewKVServer(rig.Guest.Stack, 6379); err != nil {
			panic(err)
		}
		return await(rig.Testbed.System, 60_000_000, func(done func(workload.RedisBenchResult)) {
			workload.RedisBench(rig.Client, rig.GuestIP, 6379, op, th, 500, s.RedisOps, 128, done)
		})
	}
	for _, th := range threads {
		th := th
		ls, ks := bothKinds(s, func(kind core.DriverKind) workload.RedisBenchResult { return run(kind, th, "SET") })
		lg, kg := bothKinds(s, func(kind core.DriverKind) workload.RedisBenchResult { return run(kind, th, "GET") })
		res.Pairs = append(res.Pairs,
			Pair{Metric: fmt.Sprintf("SET@%d", th), Linux: ls.OpsPerSec, Kite: ks.OpsPerSec, Unit: "ops/s"},
			Pair{Metric: fmt.Sprintf("GET@%d", th), Linux: lg.OpsPerSec, Kite: kg.OpsPerSec, Unit: "ops/s"})
		res.Table.AddRow(fmt.Sprintf("%d", th),
			metrics.FormatFloat(ls.OpsPerSec), metrics.FormatFloat(ks.OpsPerSec),
			metrics.FormatFloat(lg.OpsPerSec), metrics.FormatFloat(kg.OpsPerSec))
	}
	res.Notes = append(res.Notes, "paper: ~100-150k ops/s, parity between domains")
	return res
}

// Fig10MySQL reproduces Figure 10: sysbench read-only OLTP against MySQL
// over the network path, threads 5..60 (10a: throughput; 10b: DomU CPU
// utilization). The paper shows almost no difference between domains.
func Fig10MySQL(s Scale) *Result {
	res := &Result{ID: "FIG10", Title: "MySQL OLTP over the network domain",
		Table: metrics.NewTable("FIG10: sysbench oltp_read_only",
			"threads", "linux qps", "kite qps", "linux cpu%", "kite cpu%")}
	threads := []int{5, 10, 20, 40, 60}
	run := func(kind core.DriverKind, th int, rep int) workload.OLTPResult {
		rig := mustNetRig(kind, 0xF1A+uint64(rep))
		db, err := apps.NewSQLDB(rig.Testbed.System.Eng, rig.Guest.Dom.CPUs,
			apps.SQLConfig{Tables: 10, Rows: 1_000_000})
		if err != nil {
			panic(err)
		}
		if _, err := apps.NewSQLServer(rig.Guest.Stack, 3306, db); err != nil {
			panic(err)
		}
		return await(rig.Testbed.System, 80_000_000, func(done func(workload.OLTPResult)) {
			workload.OLTPNetwork(rig.Client, rig.GuestIP, 3306, rig.Guest.Dom.CPUs,
				10, 1_000_000, th, s.OLTPDur, done)
		})
	}
	for _, th := range threads {
		th := th
		l, k := bothKinds(s, func(kind core.DriverKind) workload.OLTPResult { return run(kind, th, 0) })
		res.Pairs = append(res.Pairs,
			Pair{Metric: fmt.Sprintf("qps@%d", th), Linux: l.QPS, Kite: k.QPS, Unit: "q/s"},
			Pair{Metric: fmt.Sprintf("cpu@%d", th), Linux: 100 * l.GuestCPUUtil, Kite: 100 * k.GuestCPUUtil, Unit: "%"})
		res.Table.AddRow(fmt.Sprintf("%d", th),
			metrics.FormatFloat(l.QPS), metrics.FormatFloat(k.QPS),
			metrics.FormatFloat(100*l.GuestCPUUtil), metrics.FormatFloat(100*k.GuestCPUUtil))
	}
	// RSD reps at 20 threads (Table 4's sysbench row).
	var lq, kq metrics.Series
	for rep := 0; rep < s.Reps; rep++ {
		rep := rep
		l, k := bothKinds(s, func(kind core.DriverKind) workload.OLTPResult { return run(kind, 20, rep) })
		lq.Add(l.QPS)
		kq.Add(k.QPS)
	}
	res.Notes = append(res.Notes,
		"paper: throughput rises with threads then saturates; curves overlap; CPU similar",
		fmt.Sprintf("sysbench RSD: linux %.4f%% kite %.4f%%", lq.RSD(), kq.RSD()))
	return res
}

// DHCPLatency reproduces §5.5: perfdhcp against the unikernelized OpenDHCP
// daemon VM. Paper: Discover-Offer ~0.78 ms, Request-Ack ~0.7 ms.
func DHCPLatency(s Scale) *Result {
	res := newResult("SEC5.5", "DHCP daemon VM latency")
	run := func(kind core.DriverKind) workload.PerfDHCPResult {
		tb := core.NewTestbed(0xD4C9)
		nd, err := tb.System.CreateNetworkDomain(core.NetworkDomainConfig{Kind: kind, NIC: tb.ServerNIC})
		if err != nil {
			panic(err)
		}
		vm, err := tb.System.CreateDHCPDaemonVM(nd, mkIP(10, 0, 0, 53), mkIP(10, 0, 0, 100), 250)
		if err != nil {
			panic(err)
		}
		drive(tb.System, vm.Guest.Ready, 500000)
		return await(tb.System, 10_000_000, func(done func(workload.PerfDHCPResult)) {
			workload.PerfDHCP(tb.Client, s.PingCount, done)
		})
	}
	// The paper's comparison is rumprun-vs-Linux hosting of the daemon; we
	// compare the daemon VM behind Kite and Linux network domains.
	linux, kite := bothKinds(s, run)
	res.AddPair("discover-offer", linux.AvgDiscoverOfer.Millis(), kite.AvgDiscoverOfer.Millis(), "ms")
	res.AddPair("request-ack", linux.AvgRequestAck.Millis(), kite.AvgRequestAck.Millis(), "ms")
	res.Notes = append(res.Notes, "paper: ~0.78 ms D-O, ~0.7 ms R-A, rumprun ≈ Linux")
	return res
}

func mkIP(a, b, c, d byte) [4]byte { return [4]byte{a, b, c, d} }
