package workload

import (
	"testing"

	"kite/internal/apps"
	"kite/internal/core"
	"kite/internal/netpkt"
	"kite/internal/sim"
)

func netRig(t *testing.T, kind core.DriverKind) *core.NetworkRig {
	t.Helper()
	rig, err := core.NewNetworkRig(kind, 42)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func storRig(t *testing.T, kind core.DriverKind, disk, cache int64) *core.StorageRig {
	t.Helper()
	rig, err := core.NewStorageRig(core.StorageRigConfig{
		Kind: kind, Seed: 42, DiskBytes: disk, CacheBytes: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func TestNuttcpMeasuresThroughputAndLoss(t *testing.T) {
	rig := netRig(t, core.KindKite)
	var res NuttcpResult
	got := false
	Nuttcp(rig.Client, rig.Guest.Stack, 7.0, 8192, 20*sim.Millisecond, func(r NuttcpResult) {
		res = r
		got = true
	})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 5_000_000) {
		t.Fatal("nuttcp livelocked")
	}
	if res.AchievedGbps < 4 || res.AchievedGbps > 10 {
		t.Fatalf("achieved = %.2f Gbps", res.AchievedGbps)
	}
	if res.LossPct < 0 || res.LossPct > 60 {
		t.Fatalf("loss = %.2f%%", res.LossPct)
	}
}

func TestPingSweep(t *testing.T) {
	rig := netRig(t, core.KindKite)
	var res PingResult
	got := false
	Ping(rig.Client.Stack, rig.GuestIP, 10, 100*sim.Microsecond, 56, func(r PingResult) {
		res = r
		got = true
	})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 2_000_000) {
		t.Fatal("ping livelocked")
	}
	if res.Count != 10 || res.AvgRTT <= 0 || res.MaxRTT < res.AvgRTT {
		t.Fatalf("ping result = %+v", res)
	}
}

func TestNetperfRR(t *testing.T) {
	rig := netRig(t, core.KindKite)
	if err := EchoServer(rig.Guest.Stack, 12865); err != nil {
		t.Fatal(err)
	}
	var res NetperfResult
	got := false
	NetperfRR(rig.Client, rig.GuestIP, 12865, 50, 100*sim.Microsecond, func(r NetperfResult) {
		res = r
		got = true
	})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 2_000_000) {
		t.Fatal("netperf livelocked")
	}
	if res.Transactions != 50 || res.AvgLatency <= 0 {
		t.Fatalf("netperf = %+v", res)
	}
}

func TestMemtierMix(t *testing.T) {
	rig := netRig(t, core.KindKite)
	srv, err := apps.NewKVServer(rig.Guest.Stack, 11211)
	if err != nil {
		t.Fatal(err)
	}
	var res MemtierResult
	got := false
	Memtier(rig.Client, rig.GuestIP, 11211, 110, 8192, 2, func(r MemtierResult) {
		res = r
		got = true
	})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 5_000_000) {
		t.Fatal("memtier livelocked")
	}
	if res.Ops != 110 || res.AvgLatency <= 0 {
		t.Fatalf("memtier = %+v", res)
	}
	sets, gets, _ := srv.Counts()
	// 1:10 SET:GET plus two seeding SETs.
	if gets < 8*sets {
		t.Fatalf("ratio off: sets=%d gets=%d", sets, gets)
	}
}

func TestApacheBench(t *testing.T) {
	rig := netRig(t, core.KindKite)
	srv, err := apps.NewHTTPServer(rig.Guest.Stack, 80)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddRandomFile("/f512k", 512<<10, 5)
	var res ABResult
	got := false
	ApacheBench(rig.Client, rig.GuestIP, 80, "/f512k", 40, 8, func(r ABResult) {
		res = r
		got = true
	})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 10_000_000) {
		t.Fatal("ab livelocked")
	}
	if res.Requests != 40 || res.Errors != 0 {
		t.Fatalf("ab = %+v", res)
	}
	if res.BodyBytes != 40*512<<10 {
		t.Fatalf("body bytes = %d", res.BodyBytes)
	}
	if res.ThroughputMBps <= 0 || res.RequestsPerSec <= 0 {
		t.Fatalf("rates = %+v", res)
	}
}

func TestRedisBenchPipeline(t *testing.T) {
	rig := netRig(t, core.KindKite)
	if _, err := apps.NewKVServer(rig.Guest.Stack, 6379); err != nil {
		t.Fatal(err)
	}
	var set, get RedisBenchResult
	done := 0
	RedisBench(rig.Client, rig.GuestIP, 6379, "SET", 5, 100, 2000, 128, func(r RedisBenchResult) {
		set = r
		done++
		RedisBench(rig.Client, rig.GuestIP, 6379, "GET", 5, 100, 2000, 128, func(r RedisBenchResult) {
			get = r
			done++
		})
	})
	if !rig.Testbed.System.RunReady(func() bool { return done == 2 }, 10_000_000) {
		t.Fatal("redis bench livelocked")
	}
	if set.Ops != 2000 || get.Ops != 2000 {
		t.Fatalf("ops = %d/%d", set.Ops, get.Ops)
	}
	if set.OpsPerSec <= 0 || get.OpsPerSec <= 0 {
		t.Fatal("zero rates")
	}
	// GETs should be at least as fast as SETs.
	if get.OpsPerSec < set.OpsPerSec*0.7 {
		t.Fatalf("GET (%f) much slower than SET (%f)", get.OpsPerSec, set.OpsPerSec)
	}
}

func TestOLTPNetwork(t *testing.T) {
	rig := netRig(t, core.KindKite)
	db, err := apps.NewSQLDB(rig.Testbed.System.Eng, rig.Guest.Dom.CPUs,
		apps.SQLConfig{Tables: 10, Rows: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apps.NewSQLServer(rig.Guest.Stack, 3306, db); err != nil {
		t.Fatal(err)
	}
	var res OLTPResult
	got := false
	OLTPNetwork(rig.Client, rig.GuestIP, 3306, rig.Guest.Dom.CPUs,
		10, 100000, 5, 20*sim.Millisecond, func(r OLTPResult) {
			res = r
			got = true
		})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 10_000_000) {
		t.Fatal("oltp livelocked")
	}
	if res.Transactions == 0 || res.QPS <= 0 {
		t.Fatalf("oltp = %+v", res)
	}
	if res.Queries != res.Transactions*(oltpPointsPerTx+oltpRangesPerTx) {
		t.Fatalf("query count %d for %d tx", res.Queries, res.Transactions)
	}
	if res.GuestCPUUtil <= 0 || res.GuestCPUUtil > 1 {
		t.Fatalf("cpu util = %f", res.GuestCPUUtil)
	}
}

func TestDDReadWrite(t *testing.T) {
	rig := storRig(t, core.KindKite, 2<<30, 0)
	var w, r DDResult
	done := 0
	DDWrite(rig.Guest.Disk, 32<<20, 128<<10, func(res DDResult) {
		w = res
		done++
		DDRead(rig.Guest.Disk, 32<<20, 128<<10, func(res DDResult) {
			r = res
			done++
		})
	})
	if !rig.Testbed.System.RunReady(func() bool { return done == 2 }, 5_000_000) {
		t.Fatal("dd livelocked")
	}
	if w.Bytes != 32<<20 || r.Bytes != 32<<20 {
		t.Fatalf("dd bytes = %d/%d", w.Bytes, r.Bytes)
	}
	if w.MBps < 100 || r.MBps < 100 {
		t.Fatalf("dd rates = %.0f/%.0f MB/s, implausibly low", w.MBps, r.MBps)
	}
}

func TestSysbenchFileIO(t *testing.T) {
	rig := storRig(t, core.KindKite, 4<<30, 8<<20)
	var res FileIOResult
	got := false
	SysbenchFileIO(rig.Testbed.System.Eng, rig.Guest.FS, FileIOConfig{
		Files: 8, TotalBytes: 64 << 20, BlockSize: 256 << 10,
		Threads: 4, Duration: 20 * sim.Millisecond, Seed: 1,
	}, func(r FileIOResult) { res = r; got = true })
	if !rig.Testbed.System.RunReady(func() bool { return got }, 20_000_000) {
		t.Fatal("fileio livelocked")
	}
	if res.Reads == 0 || res.Writes == 0 || res.MBps <= 0 {
		t.Fatalf("fileio = %+v", res)
	}
	// 3:2 ratio within statistical slack.
	ratio := float64(res.Reads) / float64(res.Writes)
	if ratio < 1.0 || ratio > 2.4 {
		t.Fatalf("read:write ratio = %.2f, want ~1.5", ratio)
	}
}

func TestFilebenchFileserver(t *testing.T) {
	rig := storRig(t, core.KindKite, 4<<30, 16<<20)
	var res FilebenchResult
	got := false
	Fileserver(rig.Testbed.System.Eng, rig.Guest.FS, FileserverConfig{
		Files: 20, MeanFile: 128 << 10, AppendSz: 1 << 10, IOSize: 64 << 10,
		Threads: 5, Duration: 20 * sim.Millisecond, Seed: 2, CPUs: rig.Guest.Dom.CPUs,
	}, func(r FilebenchResult) { res = r; got = true })
	if !rig.Testbed.System.RunReady(func() bool { return got }, 20_000_000) {
		t.Fatal("fileserver livelocked")
	}
	if res.Ops == 0 || res.MBps <= 0 || res.AvgLatency <= 0 {
		t.Fatalf("fileserver = %+v", res)
	}
}

func TestFilebenchWebserver(t *testing.T) {
	rig := storRig(t, core.KindKite, 4<<30, 16<<20)
	var res FilebenchResult
	got := false
	Webserver(rig.Testbed.System.Eng, rig.Guest.FS, WebserverConfig{
		Files: 40, MeanFile: 64 << 10, AppendSz: 16 << 10, IOSize: 64 << 10,
		Threads: 5, Duration: 20 * sim.Millisecond, Seed: 3, CPUs: rig.Guest.Dom.CPUs,
	}, func(r FilebenchResult) { res = r; got = true })
	if !rig.Testbed.System.RunReady(func() bool { return got }, 20_000_000) {
		t.Fatal("webserver livelocked")
	}
	if res.Ops == 0 || res.MBps <= 0 {
		t.Fatalf("webserver = %+v", res)
	}
}

func TestFilebenchMongo(t *testing.T) {
	rig := storRig(t, core.KindKite, 4<<30, 32<<20)
	var res FilebenchResult
	got := false
	Mongo(rig.Testbed.System.Eng, rig.Guest.FS, rig.Guest.Dom.CPUs, MongoConfig{
		Docs: 6, DocSize: 4 << 20, Users: 1, Duration: 30 * sim.Millisecond, Seed: 4,
	}, func(r FilebenchResult) { res = r; got = true })
	if !rig.Testbed.System.RunReady(func() bool { return got }, 20_000_000) {
		t.Fatal("mongo livelocked")
	}
	if res.Ops == 0 || res.MBps <= 0 || res.CPUPerOp <= 0 {
		t.Fatalf("mongo = %+v", res)
	}
}

func TestPerfDHCP(t *testing.T) {
	tb := core.NewTestbed(99)
	nd, err := tb.System.CreateNetworkDomain(core.NetworkDomainConfig{
		Kind: core.KindKite, NIC: tb.ServerNIC,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := tb.System.CreateDHCPDaemonVM(nd, netpkt.IPv4(10, 0, 0, 53),
		netpkt.IPv4(10, 0, 0, 100), 200)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(vm.Guest.Ready, 500000) {
		t.Fatal("daemon VM never ready")
	}
	var res PerfDHCPResult
	got := false
	PerfDHCP(tb.Client, 20, func(r PerfDHCPResult) { res = r; got = true })
	if !tb.System.RunReady(func() bool { return got }, 5_000_000) {
		t.Fatal("perfdhcp livelocked")
	}
	if res.Exchanges != 20 {
		t.Fatalf("exchanges = %d", res.Exchanges)
	}
	if res.AvgDiscoverOfer <= 0 || res.AvgRequestAck <= 0 {
		t.Fatalf("latencies = %+v", res)
	}
	// Both should be sub-5ms on the direct link (paper: ~0.7-0.8ms through
	// a real Xen stack).
	if res.AvgDiscoverOfer > 5*sim.Millisecond || res.AvgRequestAck > 5*sim.Millisecond {
		t.Fatalf("latencies implausible: %+v", res)
	}
}

func TestOLTPLocalStorage(t *testing.T) {
	rig := storRig(t, core.KindKite, 8<<30, 2<<20)
	db, err := apps.NewSQLDB(rig.Testbed.System.Eng, rig.Guest.Dom.CPUs,
		apps.SQLConfig{Tables: 4, Rows: 100000, Pool: rig.Guest.Pool})
	if err != nil {
		t.Fatal(err)
	}
	var res OLTPResult
	got := false
	OLTPLocal(db, rig.Guest.Dom.CPUs, rig.Testbed.System.Eng,
		4, 100000, 5, 20*sim.Millisecond, func(r OLTPResult) {
			res = r
			got = true
		})
	if !rig.Testbed.System.RunReady(func() bool { return got }, 20_000_000) {
		t.Fatal("local oltp livelocked")
	}
	if res.Transactions == 0 || res.TPS <= 0 {
		t.Fatalf("local oltp = %+v", res)
	}
	if rig.Guest.Pool.Stats().Misses == 0 {
		t.Fatal("disk-mode OLTP produced no cache misses")
	}
}

// TestRefusedDialReports dials a port nobody listens on with every TCP
// generator: each must still report, with no completed ops, rather than
// leave the experiment running to its event cap.
func TestRefusedDialReports(t *testing.T) {
	const port = 4444
	cases := []struct {
		name string
		run  func(rig *core.NetworkRig, done func(ops int))
	}{
		{"apachebench", func(rig *core.NetworkRig, done func(int)) {
			ApacheBench(rig.Client, rig.GuestIP, port, "/", 10, 2, func(r ABResult) { done(r.Requests) })
		}},
		{"netperf", func(rig *core.NetworkRig, done func(int)) {
			NetperfRR(rig.Client, rig.GuestIP, port, 10, 100*sim.Microsecond,
				func(r NetperfResult) { done(r.Transactions) })
		}},
		{"memtier", func(rig *core.NetworkRig, done func(int)) {
			Memtier(rig.Client, rig.GuestIP, port, 10, 128, 2, func(r MemtierResult) { done(r.Ops) })
		}},
		{"redis", func(rig *core.NetworkRig, done func(int)) {
			RedisBench(rig.Client, rig.GuestIP, port, "SET", 2, 10, 100, 128,
				func(r RedisBenchResult) { done(r.Ops) })
		}},
		{"oltp", func(rig *core.NetworkRig, done func(int)) {
			OLTPNetwork(rig.Client, rig.GuestIP, port, rig.Guest.Dom.CPUs, 10, 1000, 2,
				20*sim.Millisecond, func(r OLTPResult) { done(r.Transactions) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rig := netRig(t, core.KindKite)
			reports, ops := 0, 0
			c.run(rig, func(n int) { reports++; ops = n })
			if !rig.Testbed.System.RunReady(func() bool { return reports > 0 }, 2_000_000) {
				t.Fatal("no report after a refused dial")
			}
			if reports != 1 || ops != 0 {
				t.Fatalf("%d reports, %d ops; want 1 and 0", reports, ops)
			}
		})
	}
}
