package workload

import (
	"fmt"

	"kite/internal/apps"
	"kite/internal/fsim"
	"kite/internal/sim"
)

// FilebenchResult reports one filebench personality run (Figs 14-16).
type FilebenchResult struct {
	Personality string
	Ops         uint64
	Bytes       int64
	MBps        float64
	// CPUPerOp is mean execution time per operation (the us/op metric of
	// Figs 15/16).
	CPUPerOp sim.Time
	// AvgLatency is the mean per-operation completion latency.
	AvgLatency sim.Time
}

// FileserverConfig shapes the fileserver personality (Fig 14): threads
// performing create/write, open/read-whole, append, stat, delete cycles
// over a pre-created file population.
type FileserverConfig struct {
	Files    int
	MeanFile int // bytes
	AppendSz int
	IOSize   int // read/write chunk size (the Fig 14 sweep axis)
	Threads  int
	Duration sim.Time
	Seed     uint64
	CPUs     *sim.CPUPool // guest CPUs, for the us/op metric
}

// Fileserver prepares the file set and runs the op mix.
func Fileserver(eng *sim.Engine, fs *fsim.FS, cfg FileserverConfig, done func(FilebenchResult)) {
	names := fileNames("fsrv.%05d", cfg.Files)
	prepare(fs, names, cfg.MeanFile, func([]*fsim.File) {
		nextNew := cfg.Files
		l := newFilebench(eng, "fileserver", cfg.Threads, cfg.CPUs, done)
		l.run(func(idx int) {
			// Per-worker RNG: op sequences stay identical across runs even
			// when completion interleavings differ (Linux vs Kite rigs
			// must execute comparable workloads).
			rng := sim.NewRand(cfg.Seed ^ 0xf11e ^ uint64(idx)*0x9e37)
			var cycle func()
			step := 0
			var cur *fsim.File
			var t0 sim.Time
			fin := func(moved int) {
				l.done(t0, moved)
				cycle()
			}
			cycle = func() {
				if l.elapsed() >= cfg.Duration {
					l.exit()
					return
				}
				t0 = l.eng.Now()
				op := step % 5
				step++
				switch op {
				case 0: // create + write a whole new file
					name := fmt.Sprintf("fsrv.new.%d", nextNew)
					nextNew++
					f, err := fs.Create(name)
					if err != nil {
						f, _ = fs.Open(name)
					}
					cur = f
					writeWhole(fs, f, cfg.MeanFile, cfg.IOSize, fin)
				case 1: // open + read an existing file fully
					f, err := fs.Open(names[rng.Intn(len(names))])
					if err != nil {
						fin(0)
						return
					}
					readWhole(fs, f, cfg.IOSize, fin)
				case 2: // append
					fs.Append(cur, make([]byte, cfg.AppendSz), func(error) { fin(cfg.AppendSz) })
				case 3: // stat
					fs.Stat(names[rng.Intn(len(names))])
					fin(0)
				case 4: // delete the created file
					fs.Delete(cur.Name())
					fin(0)
				}
			}
			cycle()
		})
	}, func() { done(FilebenchResult{}) })
}

// WebserverConfig shapes the webserver personality (Fig 16): threads
// doing open/read-whole/close over many small files plus a log append.
type WebserverConfig struct {
	Files    int
	MeanFile int
	AppendSz int
	IOSize   int
	Threads  int
	Duration sim.Time
	Seed     uint64
	CPUs     *sim.CPUPool
}

// Webserver prepares the file set and runs the op mix.
func Webserver(eng *sim.Engine, fs *fsim.FS, cfg WebserverConfig, done func(FilebenchResult)) {
	names := fileNames("web.%05d", cfg.Files)
	prepare(fs, names, cfg.MeanFile, func([]*fsim.File) {
		log, err := fs.Create("weblog")
		if err != nil {
			log, _ = fs.Open("weblog")
		}
		l := newFilebench(eng, "webserver", cfg.Threads, cfg.CPUs, done)
		l.run(func(idx int) {
			rng := sim.NewRand(cfg.Seed ^ 0x3eb ^ uint64(idx)*0x9e37)
			var cycle func()
			reads := 0
			cycle = func() {
				if l.elapsed() >= cfg.Duration {
					l.exit()
					return
				}
				t0 := l.eng.Now()
				if reads < 10 {
					reads++
					f, err := fs.Open(names[rng.Intn(len(names))])
					if err != nil {
						cycle()
						return
					}
					readWhole(fs, f, cfg.IOSize, func(n int) {
						l.done(t0, n)
						cycle()
					})
					return
				}
				reads = 0
				fs.Append(log, make([]byte, cfg.AppendSz), func(error) {
					l.done(t0, cfg.AppendSz)
					cycle()
				})
			}
			cycle()
		})
	}, func() { done(FilebenchResult{}) })
}

// MongoConfig shapes the MongoDB personality (Fig 15): one user, large
// documents (4 MB mean I/O), reads dominating with periodic inserts and
// journal syncs.
type MongoConfig struct {
	Docs     int
	DocSize  int
	Users    int
	Duration sim.Time
	Seed     uint64
}

// Mongo runs the document-store access pattern.
func Mongo(eng *sim.Engine, fs *fsim.FS, cpus *sim.CPUPool, cfg MongoConfig, done func(FilebenchResult)) {
	ds := apps.NewDocStore(eng, fs, cpus)
	// Preload the collection.
	var load func(i int)
	load = func(i int) {
		if i < cfg.Docs {
			ds.Insert(i, cfg.DocSize, func(error) { load(i + 1) })
			return
		}
		fs.Sync(func(error) {
			fs.Pool().DropCaches()
			l := newFilebench(eng, "mongo", cfg.Users, cpus, done)
			l.run(func(idx int) {
				rng := sim.NewRand(cfg.Seed ^ 0x3070 ^ uint64(idx)*0x9e37)
				var cycle func()
				n := 0
				cycle = func() {
					if l.elapsed() >= cfg.Duration {
						l.exit()
						return
					}
					t0 := l.eng.Now()
					n++
					fin := func(moved int) {
						l.done(t0, moved)
						cycle()
					}
					switch {
					case n%8 == 0: // periodic insert
						ds.Insert(rng.Intn(cfg.Docs), cfg.DocSize, func(error) { fin(cfg.DocSize) })
					case n%16 == 0: // journal sync
						ds.SyncJournal(func(error) { fin(0) })
					default:
						ds.Read(rng.Intn(cfg.Docs), func(doc []byte, _ error) { fin(len(doc)) })
					}
				}
				cycle()
			})
		})
	}
	load(0)
}

// newFilebench starts a personality's loop; its report divides the guest
// CPU time the run took by its ops (the us/op metric).
func newFilebench(eng *sim.Engine, personality string, n int, cpus *sim.CPUPool,
	done func(FilebenchResult)) *loop {

	cpu0 := busyOf(cpus)
	return newLoop(eng, n, func(l *loop) {
		res := FilebenchResult{
			Personality: personality,
			Ops:         uint64(l.ops),
			Bytes:       l.bytes,
			MBps:        mbps(l.bytes, l.elapsed()),
			AvgLatency:  l.avg(),
		}
		if l.ops > 0 {
			res.CPUPerOp = (busyOf(cpus) - cpu0) / sim.Time(l.ops)
		}
		done(res)
	})
}

// fileNames returns n file names, format applied to 0..n-1.
func fileNames(format string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// prepare creates a file of size bytes under each name, then syncs and
// drops caches (a cold start, §5.4) and calls next with the files; fail
// runs instead if a create fails.
func prepare(fs *fsim.FS, names []string, size int, next func([]*fsim.File), fail func()) {
	files := make([]*fsim.File, len(names))
	var mk func(i int)
	mk = func(i int) {
		if i == len(names) {
			fs.Sync(func(error) {
				fs.Pool().DropCaches()
				next(files)
			})
			return
		}
		f, err := fs.Create(names[i])
		if err != nil {
			fail()
			return
		}
		files[i] = f
		writeWhole(fs, f, size, 1<<20, func(int) { mk(i + 1) })
	}
	mk(0)
}

// writeWhole writes size bytes to f in ioSize chunks.
func writeWhole(fs *fsim.FS, f *fsim.File, size, ioSize int, cb func(written int)) {
	chunks(size, ioSize, func(off int64, n int, next func()) {
		fs.Write(f, off, make([]byte, n), func(error) { next() })
	}, cb)
}

// readWhole reads f fully in ioSize chunks.
func readWhole(fs *fsim.FS, f *fsim.File, ioSize int, cb func(read int)) {
	chunks(int(f.Size()), ioSize, func(off int64, n int, next func()) {
		fs.Read(f, off, n, func([]byte, error) { next() })
	}, cb)
}

// chunks walks size bytes in ioSize pieces, one io at a time, then calls
// cb(size).
func chunks(size, ioSize int, io func(off int64, n int, next func()), cb func(int)) {
	off := 0
	var step func()
	step = func() {
		if off >= size {
			cb(size)
			return
		}
		n := min(ioSize, size-off)
		io(int64(off), n, func() {
			off += n
			step()
		})
	}
	step()
}

// busyOf tolerates a nil pool (CPU metric simply reads zero).
func busyOf(p *sim.CPUPool) sim.Time {
	if p == nil {
		return 0
	}
	return p.BusyTotal()
}
