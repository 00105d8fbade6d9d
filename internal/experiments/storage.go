package experiments

import (
	"fmt"

	"kite/internal/apps"
	"kite/internal/core"
	"kite/internal/metrics"
	"kite/internal/workload"
)

// BlkStats summarizes the deterministic block-path workload behind
// kitebench's -blk flag. Every figure derives from a single simulation's
// own state (simulated time, per-system pool counters), so the printed
// line is byte-identical for any -parallel worker count.
type BlkStats struct {
	Ops         uint64
	Bytes       uint64
	OpsPerSec   float64 // per simulated second
	BytesPerSec float64 // per simulated second
	PoolHitRate float64 // recycled fraction of sector-buffer gets
}

// BlkSummary drives a sequential write pass, a sequential read-back pass,
// and a strided read pass of Scale.DDBytes through the raw vbd on a Kite
// rig, measuring throughput in simulated time and the blkpool hit rate.
func BlkSummary(s Scale) BlkStats {
	rig := mustStorRig(core.StorageRigConfig{Kind: core.KindKite, Seed: 0xB1C, DiskBytes: 4 << 30})
	eng := rig.Testbed.System.Eng
	const ioBytes = 128 << 10
	payload := make([]byte, ioBytes)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	rounds := int(s.DDBytes / ioBytes)
	var st BlkStats
	start := eng.Now()
	oneOp := func(issue func(done *bool)) {
		done := false
		issue(&done)
		drive(rig.Testbed.System, func() bool { return done }, 10_000_000)
		st.Ops++
		st.Bytes += ioBytes
	}
	secPerOp := int64(ioBytes / 512)
	for i := 0; i < rounds; i++ {
		sector := int64(i) * secPerOp
		oneOp(func(done *bool) {
			rig.Guest.Disk.WriteSectors(sector, payload, func(err error) { *done = err == nil })
		})
	}
	for i := 0; i < rounds; i++ {
		sector := int64(i) * secPerOp
		oneOp(func(done *bool) {
			rig.Guest.Disk.ReadSectors(sector, ioBytes, func(_ []byte, err error) { *done = err == nil })
		})
	}
	for i := 0; i < rounds; i++ { // strided: defeat device sequentiality
		sector := int64((i*7)%rounds) * secPerOp
		oneOp(func(done *bool) {
			rig.Guest.Disk.ReadSectors(sector, ioBytes, func(_ []byte, err error) { *done = err == nil })
		})
	}
	elapsed := (eng.Now() - start).Seconds()
	if elapsed > 0 {
		st.OpsPerSec = float64(st.Ops) / elapsed
		st.BytesPerSec = float64(st.Bytes) / elapsed
	}
	pool := rig.Testbed.System.BlkPool
	if pool.Gets() > 0 {
		st.PoolHitRate = float64(pool.Gets()-pool.Fresh()) / float64(pool.Gets())
	}
	return st
}

// Fig11DD reproduces Figure 11: dd sequential read and write through the
// raw vbd. The paper shows ~1 GB/s-class parity between the domains.
func Fig11DD(s Scale) *Result {
	res := newResult("FIG11", "dd sequential throughput")
	run := func(kind core.DriverKind) (w, r workload.DDResult) {
		rig := mustStorRig(core.StorageRigConfig{Kind: kind, Seed: 0xF1B, DiskBytes: 4 << 30})
		done := 0
		workload.DDWrite(rig.Guest.Disk, s.DDBytes, 128<<10, func(res workload.DDResult) {
			w = res
			done++
			workload.DDRead(rig.Guest.Disk, s.DDBytes, 128<<10, func(res workload.DDResult) {
				r = res
				done++
			})
		})
		drive(rig.Testbed.System, func() bool { return done == 2 }, 60_000_000)
		return w, r
	}
	type wr struct{ w, r workload.DDResult }
	l, k := bothKinds(s, func(kind core.DriverKind) wr {
		w, r := run(kind)
		return wr{w, r}
	})
	res.AddPair("write", l.w.MBps, k.w.MBps, "MB/s")
	res.AddPair("read", l.r.MBps, k.r.MBps, "MB/s")
	res.Notes = append(res.Notes, "paper: ~1000-1200 MB/s, parity between domains")
	return res
}

// Fig12FileIO reproduces Figure 12: sysbench fileio random rw (3:2).
// 12a sweeps thread counts at 256 KB blocks; 12b sweeps block sizes at 20
// threads. The paper shows parity, with Kite edging ahead at high thread
// counts and block sizes.
func Fig12FileIO(s Scale) *Result {
	res := &Result{ID: "FIG12", Title: "sysbench fileio random rw 3:2",
		Table: metrics.NewTable("FIG12: sysbench fileio",
			"sweep", "linux MB/s", "kite MB/s", "kite/linux")}
	run := func(kind core.DriverKind, threads, bs int) workload.FileIOResult {
		rig := mustStorRig(core.StorageRigConfig{
			Kind: kind, Seed: 0xF1C, DiskBytes: 8 << 30, CacheBytes: 24 << 20,
		})
		return await(rig.Testbed.System, 120_000_000, func(done func(workload.FileIOResult)) {
			workload.SysbenchFileIO(rig.Testbed.System.Eng, rig.Guest.FS, workload.FileIOConfig{
				Files: 16, TotalBytes: s.FileIOBytes, BlockSize: bs,
				Threads: threads, Duration: s.FileIODur, Seed: uint64(threads*7 + bs),
			}, done)
		})
	}
	// 12a: thread sweep at 256 KB.
	for _, th := range []int{1, 5, 20, 60, 100} {
		th := th
		l, k := bothKinds(s, func(kind core.DriverKind) workload.FileIOResult { return run(kind, th, 256<<10) })
		res.Pairs = append(res.Pairs, Pair{Metric: fmt.Sprintf("thr@%d", th),
			Linux: l.MBps, Kite: k.MBps, Unit: "MB/s"})
		res.Table.AddRow(fmt.Sprintf("threads=%d bs=256K", th),
			metrics.FormatFloat(l.MBps), metrics.FormatFloat(k.MBps),
			metrics.FormatFloat(metrics.Ratio(k.MBps, l.MBps)))
	}
	// 12b: block-size sweep at 20 threads.
	for _, bs := range []int{16 << 10, 128 << 10, 1 << 20, 8 << 20} {
		bs := bs
		l, k := bothKinds(s, func(kind core.DriverKind) workload.FileIOResult { return run(kind, 20, bs) })
		res.Pairs = append(res.Pairs, Pair{Metric: fmt.Sprintf("bs@%s", sizeName(bs)),
			Linux: l.MBps, Kite: k.MBps, Unit: "MB/s"})
		res.Table.AddRow(fmt.Sprintf("threads=20 bs=%s", sizeName(bs)),
			metrics.FormatFloat(l.MBps), metrics.FormatFloat(k.MBps),
			metrics.FormatFloat(metrics.Ratio(k.MBps, l.MBps)))
	}
	res.Notes = append(res.Notes,
		"paper: throughput rises with threads and block size, then plateaus; Kite slightly ahead at the high end")
	return res
}

// Fig13MySQLStorage reproduces Figure 13: sysbench OLTP against MySQL
// whose dataset exceeds the page cache, so queries miss to the storage
// domain. The paper's curves are identical for both domains.
func Fig13MySQLStorage(s Scale) *Result {
	res := &Result{ID: "FIG13", Title: "MySQL OLTP through the storage domain",
		Table: metrics.NewTable("FIG13: sysbench oltp vs disk-backed MySQL",
			"threads", "linux qps", "kite qps", "kite/linux")}
	run := func(kind core.DriverKind, th int) workload.OLTPResult {
		rig := mustStorRig(core.StorageRigConfig{
			Kind: kind, Seed: 0xF1D, DiskBytes: 16 << 30, CacheBytes: 8 << 20,
		})
		db, err := apps.NewSQLDB(rig.Testbed.System.Eng, rig.Guest.Dom.CPUs,
			apps.SQLConfig{Tables: 10, Rows: 1_000_000, Pool: rig.Guest.Pool})
		if err != nil {
			panic(err)
		}
		return await(rig.Testbed.System, 120_000_000, func(done func(workload.OLTPResult)) {
			workload.OLTPLocal(db, rig.Guest.Dom.CPUs, rig.Testbed.System.Eng,
				10, 1_000_000, th, s.OLTPDur, done)
		})
	}
	for _, th := range []int{1, 5, 20, 60, 100} {
		th := th
		l, k := bothKinds(s, func(kind core.DriverKind) workload.OLTPResult { return run(kind, th) })
		res.Pairs = append(res.Pairs, Pair{Metric: fmt.Sprintf("qps@%d", th),
			Linux: l.QPS, Kite: k.QPS, Unit: "q/s"})
		res.Table.AddRow(fmt.Sprintf("%d", th),
			metrics.FormatFloat(l.QPS), metrics.FormatFloat(k.QPS),
			metrics.FormatFloat(metrics.Ratio(k.QPS, l.QPS)))
	}
	res.Notes = append(res.Notes, "paper: identical curves for both domains")
	return res
}

// Fig14Fileserver reproduces Figure 14: filebench's fileserver personality
// swept over I/O sizes. Paper: Kite often slightly better.
func Fig14Fileserver(s Scale) *Result {
	res := &Result{ID: "FIG14", Title: "filebench fileserver",
		Table: metrics.NewTable("FIG14: fileserver throughput by I/O size",
			"io size", "linux MB/s", "kite MB/s", "kite/linux")}
	run := func(kind core.DriverKind, ioSize int) workload.FilebenchResult {
		rig := mustStorRig(core.StorageRigConfig{
			Kind: kind, Seed: 0xF1E, DiskBytes: 8 << 30, CacheBytes: 8 << 20,
		})
		return await(rig.Testbed.System, 120_000_000, func(done func(workload.FilebenchResult)) {
			workload.Fileserver(rig.Testbed.System.Eng, rig.Guest.FS, workload.FileserverConfig{
				Files: 120, MeanFile: 128 << 10, AppendSz: 1 << 10, IOSize: ioSize,
				Threads: 10, Duration: s.FilebenchDur, Seed: uint64(ioSize),
				CPUs: rig.Guest.Dom.CPUs,
			}, done)
		})
	}
	for _, io := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 8 << 20} {
		io := io
		l, k := bothKinds(s, func(kind core.DriverKind) workload.FilebenchResult { return run(kind, io) })
		res.Pairs = append(res.Pairs, Pair{Metric: fmt.Sprintf("io@%s", sizeName(io)),
			Linux: l.MBps, Kite: k.MBps, Unit: "MB/s"})
		res.Table.AddRow(sizeName(io),
			metrics.FormatFloat(l.MBps), metrics.FormatFloat(k.MBps),
			metrics.FormatFloat(metrics.Ratio(k.MBps, l.MBps)))
	}
	res.Notes = append(res.Notes, "paper: 200-700 MB/s rising with I/O size; Kite slightly better")
	return res
}

// Fig15Mongo reproduces Figure 15: the MongoDB access pattern, one user,
// 4 MB mean I/O. Paper: Kite outperforms Linux even at low concurrency.
func Fig15Mongo(s Scale) *Result {
	res := newResult("FIG15", "filebench MongoDB personality")
	run := func(kind core.DriverKind) workload.FilebenchResult {
		rig := mustStorRig(core.StorageRigConfig{
			Kind: kind, Seed: 0xF1F, DiskBytes: 8 << 30, CacheBytes: 32 << 20,
		})
		return await(rig.Testbed.System, 120_000_000, func(done func(workload.FilebenchResult)) {
			workload.Mongo(rig.Testbed.System.Eng, rig.Guest.FS, rig.Guest.Dom.CPUs,
				workload.MongoConfig{Docs: 12, DocSize: 4 << 20, Users: 1,
					Duration: s.FilebenchDur, Seed: 0x30}, done)
		})
	}
	l, k := bothKinds(s, run)
	res.AddPair("throughput", l.MBps*8, k.MBps*8, "Mbps")
	res.AddPair("cpu", l.CPUPerOp.Micros(), k.CPUPerOp.Micros(), "us/op")
	res.AddPair("latency", l.AvgLatency.Millis(), k.AvgLatency.Millis(), "ms")
	res.Notes = append(res.Notes, "paper: Kite higher throughput, lower us/op and latency")
	return res
}

// Fig16Webserver reproduces Figure 16: the webserver personality. Paper:
// Kite takes slightly less time per op, so slightly higher throughput and
// lower latency.
func Fig16Webserver(s Scale) *Result {
	res := newResult("FIG16", "filebench webserver personality")
	run := func(kind core.DriverKind) workload.FilebenchResult {
		rig := mustStorRig(core.StorageRigConfig{
			Kind: kind, Seed: 0xF20, DiskBytes: 8 << 30, CacheBytes: 6 << 20,
		})
		return await(rig.Testbed.System, 120_000_000, func(done func(workload.FilebenchResult)) {
			workload.Webserver(rig.Testbed.System.Eng, rig.Guest.FS, workload.WebserverConfig{
				Files: 200, MeanFile: 64 << 10, AppendSz: 16 << 10, IOSize: 64 << 10,
				Threads: 10, Duration: s.FilebenchDur, Seed: 0x3b,
				CPUs: rig.Guest.Dom.CPUs,
			}, done)
		})
	}
	l, k := bothKinds(s, run)
	res.AddPair("throughput", l.MBps*8, k.MBps*8, "Mbps")
	res.AddPair("cpu", l.CPUPerOp.Micros(), k.CPUPerOp.Micros(), "us/op")
	res.AddPair("latency", l.AvgLatency.Millis(), k.AvgLatency.Millis(), "ms")
	res.Notes = append(res.Notes, "paper: Kite slightly higher throughput, lower per-op time")
	return res
}
