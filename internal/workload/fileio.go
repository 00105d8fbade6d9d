package workload

import (
	"kite/internal/blkfront"
	"kite/internal/fsim"
	"kite/internal/sim"
)

// DDResult reports one dd run (Fig 11).
type DDResult struct {
	Direction string // "read" or "write"
	Bytes     int64
	Duration  sim.Time
	MBps      float64
}

// ddQueueDepth models the buffer cache's write-behind/readahead: dd on a
// block device keeps several requests in flight, which is what lets both
// driver domains reach device speed (Fig 11's parity).
const ddQueueDepth = 4

// ddStream drives sequential I/O at ddQueueDepth outstanding requests.
func ddStream(disk *blkfront.Device, direction string, totalBytes int64, bs int,
	issue func(off int64, n int, cb func(error)), done func(DDResult)) {

	eng := disk.Engine()
	start := eng.Now()
	var nextOff int64
	var completed int64
	inflight := 0
	failed := false
	var pump func()
	pump = func() {
		for inflight < ddQueueDepth && nextOff < totalBytes && !failed {
			n := bs
			if int64(n) > totalBytes-nextOff {
				n = int(totalBytes - nextOff)
			}
			off := nextOff
			nextOff += int64(n)
			inflight++
			issue(off, n, func(err error) {
				inflight--
				if err != nil {
					failed = true
				} else {
					completed += int64(n)
				}
				if completed >= totalBytes || (failed && inflight == 0) {
					if failed {
						done(DDResult{Direction: direction})
						return
					}
					dur := eng.Now() - start
					done(DDResult{Direction: direction, Bytes: completed,
						Duration: dur, MBps: mbps(completed, dur)})
					return
				}
				pump()
			})
		}
	}
	pump()
}

// DDWrite streams totalBytes of zeroes to the raw vbd in bs-sized
// sequential operations (dd if=/dev/zero of=/dev/xvdb bs=..).
func DDWrite(disk *blkfront.Device, totalBytes int64, bs int, done func(DDResult)) {
	buf := make([]byte, bs)
	ddStream(disk, "write", totalBytes, bs, func(off int64, n int, cb func(error)) {
		disk.WriteSectors(off/512, buf[:n], cb)
	}, done)
}

// DDRead streams totalBytes from the raw vbd sequentially (dd
// if=/dev/xvdb of=/dev/null bs=..).
func DDRead(disk *blkfront.Device, totalBytes int64, bs int, done func(DDResult)) {
	ddStream(disk, "read", totalBytes, bs, func(off int64, n int, cb func(error)) {
		disk.ReadSectors(off/512, n, func(_ []byte, err error) { cb(err) })
	}, done)
}

func mbps(bytes int64, dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(bytes) / dur.Seconds() / (1 << 20)
}

// FileIOConfig shapes a sysbench-fileio run (Fig 12): sysbench prepares
// `Files` files totalling TotalBytes, then performs random reads and
// writes in a 3:2 ratio with the given block size and concurrency.
type FileIOConfig struct {
	Files      int
	TotalBytes int64
	BlockSize  int
	Threads    int
	Duration   sim.Time
	Seed       uint64
}

// FileIOResult reports the run.
type FileIOResult struct {
	Threads    int
	BlockSize  int
	Reads      int
	Writes     int
	Bytes      int64
	MBps       float64
	AvgLatency sim.Time
}

// SysbenchFileIO prepares the files and runs the random rw mix.
func SysbenchFileIO(eng *sim.Engine, fs *fsim.FS, cfg FileIOConfig, done func(FileIOResult)) {
	fileSize := cfg.TotalBytes / int64(cfg.Files)
	fileSize -= fileSize % int64(cfg.BlockSize)
	if fileSize < int64(cfg.BlockSize) {
		fileSize = int64(cfg.BlockSize)
	}
	// sysbench prepare creates the files; the run starts cold.
	prepare(fs, fileNames("sbtest.%d", cfg.Files), int(fileSize), func(files []*fsim.File) {
		reads, writes := 0, 0
		l := newLoop(eng, cfg.Threads, func(l *loop) {
			done(FileIOResult{
				Threads: cfg.Threads, BlockSize: cfg.BlockSize,
				Reads: reads, Writes: writes, Bytes: l.bytes,
				MBps: mbps(l.bytes, l.elapsed()), AvgLatency: l.avg(),
			})
		})
		l.run(func(idx int) {
			rng := sim.NewRand((cfg.Seed | 1) ^ uint64(idx)*0x9e37)
			writesSinceSync := 0
			var step func()
			step = func() {
				if l.elapsed() >= cfg.Duration {
					l.exit()
					return
				}
				f := files[rng.Intn(len(files))]
				maxOff := max(f.Size()-int64(cfg.BlockSize), 0)
				off := rng.Int63n(maxOff/int64(cfg.BlockSize)+1) * int64(cfg.BlockSize)
				t0 := l.eng.Now()
				fin := func() {
					l.done(t0, cfg.BlockSize)
					step()
				}
				if rng.Intn(5) < 3 { // 3:2 read:write
					reads++
					fs.Read(f, off, cfg.BlockSize, func([]byte, error) { fin() })
					return
				}
				writes++
				if writesSinceSync++; writesSinceSync >= 100 {
					// sysbench's default --file-fsync-freq=100.
					writesSinceSync = 0
					fs.Write(f, off, make([]byte, cfg.BlockSize), func(error) {
						fs.Sync(func(error) { fin() })
					})
					return
				}
				fs.Write(f, off, make([]byte, cfg.BlockSize), func(error) { fin() })
			}
			step()
		})
	}, func() { done(FileIOResult{}) })
}
