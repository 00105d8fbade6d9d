package nvme

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"kite/internal/sim"
)

func newDev(eng *sim.Engine) *Device {
	return New(eng, Default970EvoPlus(), "04:00.0")
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	data := make([]byte, 8192)
	sim.NewRand(1).Bytes(data)
	var got []byte
	d.Write(1000, data, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		d.Read(1000, len(data), func(b []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = b
		})
	})
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	var got []byte
	d.Read(5_000_000, 4096, func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = b
	})
	eng.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector returned nonzero data")
		}
	}
}

func TestUnalignedRejected(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	var err1, err2 error
	d.Read(0, 100, func(_ []byte, err error) { err1 = err })
	d.Write(-1, make([]byte, 512), func(err error) { err2 = err })
	eng.Run()
	if err1 == nil || err2 == nil {
		t.Fatal("invalid i/o accepted")
	}
}

func TestBeyondCapacityRejected(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	var gotErr error
	d.Read(d.CapacitySectors()-1, 4096, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("read past capacity accepted")
	}
}

func TestLatencyModel(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Default970EvoPlus()
	d := New(eng, cfg, "04:00.0")
	var doneAt sim.Time
	d.Read(0, 4096, func([]byte, error) { doneAt = eng.Now() })
	eng.Run()
	// First command from sector 0 is non-sequential (lastEnd starts at 0 ==
	// sector 0, so it IS sequential): overhead + transfer + base latency.
	want := cfg.CmdOverhead + cfg.ReadLatency + sim.Time(4096*int64(sim.Second)/cfg.ReadBps)
	if doneAt != want {
		t.Fatalf("read completed at %v, want %v", doneAt, want)
	}
	// A jump to a far sector pays the random penalty on top.
	var randAt sim.Time
	start := eng.Now()
	d.Read(1_000_000, 4096, func([]byte, error) { randAt = eng.Now() - start })
	eng.Run()
	if randAt != want+cfg.RandomPenalty {
		t.Fatalf("random read took %v, want %v", randAt, want+cfg.RandomPenalty)
	}
}

func TestCommandLatencyOverlaps(t *testing.T) {
	// Eight queued 4 KiB reads overlap their base latencies; total time
	// must be far less than eight serialized commands.
	eng := sim.NewEngine()
	cfg := Default970EvoPlus()
	d := New(eng, cfg, "04:00.0")
	var last sim.Time
	for i := 0; i < 8; i++ {
		d.Read(int64(i*8), 4096, func([]byte, error) { last = eng.Now() })
	}
	eng.Run()
	serialized := 8 * (cfg.ReadLatency + sim.Time(4096*int64(sim.Second)/cfg.ReadBps))
	if last >= serialized/2 {
		t.Fatalf("queued reads took %v, want well under serialized %v", last, serialized)
	}
}

func TestSequentialBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Default970EvoPlus()
	d := New(eng, cfg, "04:00.0")
	const chunk = 1 << 20
	const chunks = 64
	var last sim.Time
	done := 0
	for i := 0; i < chunks; i++ {
		d.Read(int64(i*chunk/SectorSize), chunk, func([]byte, error) {
			done++
			last = eng.Now()
		})
	}
	eng.Run()
	if done != chunks {
		t.Fatalf("completed %d of %d", done, chunks)
	}
	gbps := float64(chunk*chunks) / last.Seconds() / 1e9
	// Pipelined transfers should approach but never exceed 3.5 GB/s.
	if gbps < 2.5 || gbps > 3.5 {
		t.Fatalf("sequential read = %.2f GB/s, want ~3.4", gbps)
	}
}

func TestFlushWaitsForInflight(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	var writeDone, flushDone sim.Time
	d.Write(0, make([]byte, 1<<20), func(error) { writeDone = eng.Now() })
	d.Flush(func(error) { flushDone = eng.Now() })
	eng.Run()
	if flushDone <= writeDone {
		t.Fatal("flush completed before in-flight write")
	}
}

func TestStatsCount(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	d.Write(0, make([]byte, 512), func(error) {})
	d.Read(0, 512, func([]byte, error) {})
	d.Flush(func(error) {})
	eng.Run()
	st := d.Stats()
	if st.WriteOps != 1 || st.ReadOps != 1 || st.FlushOps != 1 ||
		st.ReadBytes != 512 || st.WriteBytes != 512 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVecRoundTrip(t *testing.T) {
	// A scatter write followed by a gather read into differently shaped
	// segments must carry the same bytes as the flat path.
	eng := sim.NewEngine()
	d := newDev(eng)
	data := make([]byte, 12288)
	sim.NewRand(3).Bytes(data)
	out := make([]byte, len(data))
	done := 0
	d.WriteVec(64, [][]byte{data[:4096], data[4096:6144], data[6144:]}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done++
		d.ReadVec(64, [][]byte{out[:512], out[512:8192], out[8192:]}, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done++
		})
	})
	eng.Run()
	if done != 2 || !bytes.Equal(out, data) {
		t.Fatal("vectored round trip mismatch")
	}
	st := d.Stats()
	if st.VecWrites != 1 || st.VecReads != 1 {
		t.Fatalf("vec ops = %d/%d, want 1/1", st.VecWrites, st.VecReads)
	}
}

func TestVecReadGathersAtCompletion(t *testing.T) {
	// ReadVec must fully overwrite recycled destination buffers: unwritten
	// regions read as zeros, not as the buffer's stale contents.
	eng := sim.NewEngine()
	d := newDev(eng)
	dst := bytes.Repeat([]byte{0xEE}, 4096)
	d.ReadVec(9_000_000, [][]byte{dst}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	for _, b := range dst {
		if b != 0 {
			t.Fatal("stale destination bytes survived an unwritten-region read")
		}
	}
}

func TestVecRejectsBadRange(t *testing.T) {
	eng := sim.NewEngine()
	d := newDev(eng)
	var err1, err2 error
	d.ReadVec(d.CapacitySectors()-1, [][]byte{make([]byte, 4096)}, func(err error) { err1 = err })
	d.WriteVec(0, [][]byte{make([]byte, 100)}, func(err error) { err2 = err })
	eng.Run()
	if err1 == nil || err2 == nil {
		t.Fatal("invalid vectored i/o accepted")
	}
}

func TestReadAfterPartialWriteIntegrity(t *testing.T) {
	// Consecutive partial writes into different fresh blocks must not alias
	// each other (a store that staged them through one shared buffer and
	// kept it would), and the uncovered regions must read as zeros.
	eng := sim.NewEngine()
	d := newDev(eng)
	a := bytes.Repeat([]byte{0xAA}, 512)
	b := bytes.Repeat([]byte{0xBB}, 512)
	done := 0
	d.Write(1, a, func(error) { done++ }) // partial write, block 0
	d.Write(9, b, func(error) { done++ }) // partial write, block 1
	eng.Run()
	if done != 2 {
		t.Fatal("writes incomplete")
	}
	blk0 := d.PeekBytes(0, 4096)
	blk1 := d.PeekBytes(8, 4096)
	if !bytes.Equal(blk0[512:1024], a) || !bytes.Equal(blk1[512:1024], b) {
		t.Fatal("partial writes corrupted each other")
	}
	for i, v := range blk0 {
		if (i < 512 || i >= 1024) && v != 0 {
			t.Fatalf("block 0 byte %d = %#x, want 0", i, v)
		}
	}
	// A later partial write to block 0 must preserve the first run.
	c := bytes.Repeat([]byte{0xCC}, 512)
	d.Write(3, c, func(error) { done++ })
	eng.Run()
	blk0 = d.PeekBytes(0, 4096)
	if !bytes.Equal(blk0[512:1024], a) || !bytes.Equal(blk0[1536:2048], c) {
		t.Fatal("partial overwrite lost earlier data")
	}
}

func TestCrossBlockBoundaryData(t *testing.T) {
	// Writes not aligned to the 4 KiB sparse-store blocks must still read
	// back correctly.
	eng := sim.NewEngine()
	d := newDev(eng)
	data := make([]byte, 3*512)
	sim.NewRand(9).Bytes(data)
	var got []byte
	d.Write(7, data, func(error) { // sector 7: straddles block 0/1 boundary
		d.Read(7, len(data), func(b []byte, err error) { got = b })
	})
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("cross-boundary write corrupted")
	}
}

// splitVec cuts b into an iovec of uneven sector-multiple segments.
func splitVec(rng *sim.Rand, b []byte) [][]byte {
	var iov [][]byte
	for len(b) > 0 {
		n := (1 + rng.Intn(16)) * SectorSize
		if n > len(b) {
			n = len(b)
		}
		iov = append(iov, b[:n])
		b = b[n:]
	}
	return iov
}

func TestStoreMatchesFlatModel(t *testing.T) {
	// The extent-indexed store against a flat byte array, through all four
	// data entry points. The window is twelve extents; the last four are
	// never written, so reads that wander there bounce the cursor onto
	// extents with no directory and back. Lengths run from one sector to
	// past an extent, starts are biased onto block and extent boundaries.
	const (
		extentBytes = extentBlocks * blockSize
		window      = 12 * extentBytes
		writable    = 8 * extentBytes
		base        = int64(37) * extentBytes // the window's first byte on the device
	)
	eng := sim.NewEngine()
	d := newDev(eng)
	ref := make([]byte, window)
	rng := sim.NewRand(0x5eed)

	pick := func(limit int) (off, n int) {
		switch rng.Intn(4) {
		case 0: // anywhere, any sector count up to 1.25 extents
			n = (1 + rng.Intn(extentBytes*5/4/SectorSize)) * SectorSize
			off = rng.Intn(limit/SectorSize) * SectorSize
		case 1: // a few sectors straddling a block boundary
			n = (2 + rng.Intn(6)) * SectorSize
			off = (1+rng.Intn(limit/blockSize-1))*blockSize - SectorSize*(1+rng.Intn(n/SectorSize-1))
		case 2: // straddling an extent boundary
			n = (2 + rng.Intn(extentBytes/SectorSize)) * SectorSize
			off = (1+rng.Intn(limit/extentBytes-1))*extentBytes - SectorSize*(1+rng.Intn(n/SectorSize-1))
		default: // one sector inside a block: the partial-write case
			n = SectorSize
			off = rng.Intn(limit/SectorSize) * SectorSize
		}
		if off+n > limit {
			n = limit - off
		}
		return off, n
	}
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < 600; step++ {
		if rng.Intn(2) == 0 {
			off, n := pick(writable)
			data := make([]byte, n)
			rng.Bytes(data)
			copy(ref[off:], data)
			sector := (base + int64(off)) / SectorSize
			if rng.Intn(2) == 0 {
				d.WriteVec(sector, splitVec(rng, data), fail)
			} else {
				d.Write(sector, data, fail)
			}
			eng.Run()
			continue
		}
		off, n := pick(window)
		sector := (base + int64(off)) / SectorSize
		var got []byte
		if rng.Intn(2) == 0 {
			got = bytes.Repeat([]byte{0xEE}, n) // stale bytes a read must overwrite
			d.ReadVec(sector, splitVec(rng, got), fail)
		} else {
			d.Read(sector, n, func(b []byte, err error) { fail(err); got = b })
		}
		eng.Run()
		if !bytes.Equal(got, ref[off:off+n]) {
			t.Fatalf("step %d: read of %d bytes at window offset %d differs from the model", step, n, off)
		}
	}
	if got := d.PeekBytes(base/SectorSize, window); !bytes.Equal(got, ref) {
		t.Fatal("final store image differs from the model")
	}
	if len(d.blocks) > writable/extentBytes {
		t.Fatalf("%d directories for %d written extents: a read made one", len(d.blocks), writable/extentBytes)
	}
}

func TestDirectoryLookupsPerCommand(t *testing.T) {
	// What the extent directory is for: a merged 256 KiB command resolves
	// its directory once (twice if it straddles two extents) and indexes
	// the other 63 segments; 64 scattered 4 KiB writes pay one probe each,
	// never more.
	eng := sim.NewEngine()
	d := newDev(eng)
	ok := func(error) {}
	iov := make([][]byte, extentBlocks)
	for i := range iov {
		iov[i] = make([]byte, blockSize)
	}
	const extentSectors = extentBlocks * blockSize / SectorSize
	for _, sector := range []int64{0, extentSectors, 2 * extentSectors} {
		d.WriteVec(sector, iov, ok)
	}
	eng.Run()

	lookups := func(f func()) uint64 {
		before := d.Stats().DirLookups
		f()
		eng.Run()
		return d.Stats().DirLookups - before
	}
	d.PeekBytes(9*extentSectors, SectorSize) // park the cursor elsewhere
	if n := lookups(func() { d.ReadVec(extentSectors, iov, ok) }); n != 1 {
		t.Errorf("aligned 256 KiB ReadVec = %d directory lookups, want 1", n)
	}
	if n := lookups(func() { d.ReadVec(extentSectors/2, iov, ok) }); n > 2 {
		t.Errorf("straddling 256 KiB ReadVec = %d directory lookups, want <= 2", n)
	}
	rng := sim.NewRand(11)
	if n := lookups(func() {
		for i := 0; i < 64; i++ {
			blk := rng.Int63n(3 * extentBlocks)
			d.WriteVec(blk*blockSize/SectorSize, iov[:1], ok)
		}
	}); n > 64 {
		t.Errorf("64 random 4 KiB writes = %d directory lookups, want <= 64", n)
	}
}

func TestFarSectorFootprint(t *testing.T) {
	// Residency is per 4 KiB block, not per extent: one sector written at
	// the device's last LBA makes one block resident under one directory,
	// and allocates one slab plus that directory (plus the map's first
	// bucket and the command record, the slack below) — not 256 KiB per
	// extent touched, and nothing proportional to the 500 GB below it.
	eng := sim.NewEngine()
	d := newDev(eng)
	sector := bytes.Repeat([]byte{0x5A}, SectorSize)
	last := d.CapacitySectors() - 1

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := moduleAllocBytes()
	d.Write(last, sector, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()

	const slack = 4096
	budget := int64(slabBlocks*blockSize) + int64(unsafe.Sizeof(extent{})) + slack
	if got := moduleAllocBytes() - before; got > budget {
		t.Errorf("far single-sector write allocated %d bytes, budget %d", got, budget)
	}
	resident := 0
	for _, e := range d.blocks {
		for _, b := range e {
			if b != nil {
				resident++
			}
		}
	}
	if len(d.blocks) != 1 || resident != 1 {
		t.Errorf("%d directories, %d resident blocks; want 1 and 1", len(d.blocks), resident)
	}
	if got := d.PeekBytes(last, SectorSize); !bytes.Equal(got, sector) {
		t.Error("far sector did not read back")
	}
	// A second far sector in the same slab's reach costs a directory, not a
	// second slab.
	before = moduleAllocBytes()
	d.Write(last/2, sector, func(error) {})
	eng.Run()
	if got := moduleAllocBytes() - before; got > int64(unsafe.Sizeof(extent{}))+slack {
		t.Errorf("second far write allocated %d bytes: it should carve from the first slab", got)
	}
}

// moduleAllocBytes sums the bytes the heap profile records as allocated
// under a kite/ function, leaving out its own, so allocations the runtime
// or the test binary make meanwhile do not count. A record is published a
// cycle after its allocation, so two collections run first. The caller
// sets runtime.MemProfileRate to 1 so that every allocation is recorded.
func moduleAllocBytes() (total int64) {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("heap profile grew past its buffer")
	}
	for i := range recs[:n] {
		module := false
		for frames, more := runtime.CallersFrames(recs[i].Stack()), true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasSuffix(fr.Function, ".moduleAllocBytes") {
				module, more = false, false
			} else if strings.HasPrefix(fr.Function, "kite/") {
				module = true
			}
		}
		if module {
			total += recs[i].AllocBytes
		}
	}
	return total
}
