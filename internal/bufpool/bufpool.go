// Package bufpool implements the guest's page cache over a paravirtual
// disk: fixed-size chunks with LRU eviction, read-through with miss
// coalescing, and write-back with dirty-chunk clustering. The storage
// macrobenchmarks (sysbench fileio, filebench, MySQL-on-disk) exercise the
// blkfront/blkback path through this cache exactly like the page cache on
// the paper's DomU, and "flush the read buffer ... use total I/O size
// bigger than main memory" (§5.4) translates to bounded capacity here.
package bufpool

import (
	"container/list"
	"fmt"
	"sort"

	"kite/internal/sim"
)

// Disk is the cache's backing device; blkfront.Device satisfies it. The
// data slice a ReadSectors callback receives is only valid during the
// callback (it is pooled by the frontend); the cache therefore fills its
// chunks with ReadSectorsInto and never retains a disk-owned buffer.
type Disk interface {
	ReadSectors(sector int64, n int, cb func(data []byte, err error))
	ReadSectorsInto(sector int64, dst []byte, cb func(err error))
	WriteSectors(sector int64, data []byte, cb func(err error))
	Flush(cb func(err error))
	SectorCount() int64
}

// SectorSize mirrors the disk's logical block.
const SectorSize = 512

// Stats counts cache activity.
type Stats struct {
	Hits, Misses uint64
	Evictions    uint64
	Writebacks   uint64
	ReadBytes    uint64
	WriteBytes   uint64
}

// Config describes a pool.
type Config struct {
	// ChunkBytes is the cache granularity (must be a multiple of
	// SectorSize). Default 16 KiB.
	ChunkBytes int
	// CapacityBytes bounds resident cache memory. Default 64 MiB.
	CapacityBytes int64
	// CPUs and costs model the guest's page-cache software path.
	CPUs      *sim.CPUPool
	HitCost   sim.Time // per chunk touched in cache
	PerKBCost sim.Time // memcpy per KiB moved to/from the caller
}

type chunkState int

const (
	chunkLoading chunkState = iota
	chunkValid
)

type chunk struct {
	no      int64
	state   chunkState
	data    []byte
	dirty   bool
	waiters []func(error)
	lruElem *list.Element
	wb      bool // writeback in flight
	refs    int  // scheduled hit callbacks still holding data; pins eviction
}

// Pool is one page cache instance.
type Pool struct {
	eng  *sim.Engine
	disk Disk
	cfg  Config

	chunks map[int64]*chunk
	lru    *list.List // front = most recent

	// bufFree recycles chunk-sized byte slices: chunk payloads come from
	// and return to it on eviction, and writeback staging borrows from it,
	// so the steady-state cache allocates no fresh chunk buffers.
	bufFree [][]byte

	stats Stats
}

// New creates a pool over disk.
func New(eng *sim.Engine, disk Disk, cfg Config) *Pool {
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = 16 << 10
	}
	if cfg.ChunkBytes%SectorSize != 0 {
		panic(fmt.Sprintf("bufpool: chunk size %d not sector aligned", cfg.ChunkBytes))
	}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 64 << 20
	}
	return &Pool{
		eng:    eng,
		disk:   disk,
		cfg:    cfg,
		chunks: make(map[int64]*chunk),
		lru:    list.New(),
	}
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats { return p.stats }

// getBuf hands out a chunk-sized buffer; contents are stale, callers must
// fully overwrite it.
func (p *Pool) getBuf() []byte {
	if n := len(p.bufFree); n > 0 {
		b := p.bufFree[n-1]
		p.bufFree = p.bufFree[:n-1]
		return b
	}
	return make([]byte, p.cfg.ChunkBytes)
}

func (p *Pool) putBuf(b []byte) {
	p.bufFree = append(p.bufFree, b)
}

// dropChunk removes a chunk from the cache and recycles its payload.
func (p *Pool) dropChunk(c *chunk) {
	if c.lruElem != nil {
		p.lru.Remove(c.lruElem)
		c.lruElem = nil
	}
	delete(p.chunks, c.no)
	if c.data != nil {
		p.putBuf(c.data)
		c.data = nil
	}
}

// Resident returns the current cached byte count.
func (p *Pool) Resident() int64 { return int64(len(p.chunks)) * int64(p.cfg.ChunkBytes) }

// SizeBytes returns the byte size of the underlying disk.
func (p *Pool) SizeBytes() int64 { return p.disk.SectorCount() * SectorSize }

// DropCaches discards all clean chunks (the benchmark scripts' `echo 3 >
// drop_caches` between runs). Dirty chunks survive.
func (p *Pool) DropCaches() {
	for _, c := range p.chunks { //kite:orderok drops every clean idle chunk; recycled payload buffers are interchangeable
		if c.state == chunkValid && !c.dirty && !c.wb && c.refs == 0 {
			p.dropChunk(c)
		}
	}
}

// chargeThen bills the page-cache CPU work and runs fn at its completion
// time. Cached operations therefore consume real virtual time — without
// this, an all-hit workload would spin at a single simulated instant.
func (p *Pool) chargeThen(bytes int, chunks int, fn func()) {
	if p.cfg.CPUs == nil {
		p.eng.After(sim.Time(chunks)*200, fn) // uncharged pools still advance time
		return
	}
	done := p.cfg.CPUs.Charge(sim.Time(chunks)*p.cfg.HitCost + sim.Time(bytes)*p.cfg.PerKBCost/1024)
	p.eng.Schedule(done, fn)
}

func (p *Pool) touch(c *chunk) {
	if c.lruElem != nil {
		p.lru.MoveToFront(c.lruElem)
	}
}

// Read copies n bytes at byte offset off; cb receives a fresh buffer.
func (p *Pool) Read(off int64, n int, cb func(data []byte, err error)) {
	out := make([]byte, n)
	p.ReadInto(off, out, func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		cb(out, nil)
	})
}

// ReadInto copies len(dst) bytes at byte offset off into dst, sparing the
// per-call output allocation of Read.
func (p *Pool) ReadInto(off int64, dst []byte, cb func(err error)) {
	n := len(dst)
	out := dst
	if err := p.validate(off, n); err != nil {
		p.eng.After(0, func() { cb(err) })
		return
	}
	cs := int64(p.cfg.ChunkBytes)
	first := off / cs
	last := (off + int64(n) - 1) / cs
	remaining := int(last - first + 1)
	var failed error
	oneDone := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
		remaining--
		if remaining == 0 {
			if failed != nil {
				cb(failed)
				return
			}
			p.chargeThen(n, int(last-first+1), func() { cb(nil) })
		}
	}
	p.stats.ReadBytes += uint64(n)
	for no := first; no <= last; no++ {
		no := no
		p.withChunk(no, func(c *chunk, err error) {
			if err == nil {
				lo := no * cs
				srcFrom := int64(0)
				dstFrom := lo - off
				if dstFrom < 0 {
					srcFrom = -dstFrom
					dstFrom = 0
				}
				count := cs - srcFrom
				if dstFrom+count > int64(n) {
					count = int64(n) - dstFrom
				}
				copy(out[dstFrom:dstFrom+count], c.data[srcFrom:srcFrom+count])
				p.touch(c)
			}
			oneDone(err)
		})
	}
}

// Write stores data at byte offset off (write-back: completion means the
// data is in cache; Sync persists it).
func (p *Pool) Write(off int64, data []byte, cb func(err error)) {
	n := len(data)
	if err := p.validate(off, n); err != nil {
		p.eng.After(0, func() { cb(err) })
		return
	}
	cs := int64(p.cfg.ChunkBytes)
	first := off / cs
	last := (off + int64(n) - 1) / cs
	remaining := int(last - first + 1)
	var failed error
	oneDone := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
		remaining--
		if remaining == 0 {
			err := failed
			p.chargeThen(n, int(last-first+1), func() { cb(err) })
		}
	}
	p.stats.WriteBytes += uint64(n)
	for no := first; no <= last; no++ {
		no := no
		lo := no * cs
		srcFrom := lo - off
		dstFrom := int64(0)
		if srcFrom < 0 {
			dstFrom = -srcFrom
			srcFrom = 0
		}
		count := cs - dstFrom
		if srcFrom+count > int64(n) {
			count = int64(n) - srcFrom
		}
		fullOverwrite := dstFrom == 0 && count == cs

		if fullOverwrite {
			// No need to read the old contents.
			c := p.chunks[no]
			if c == nil {
				c = &chunk{no: no, state: chunkValid, data: p.getBuf()}
				p.chunks[no] = c
				c.lruElem = p.lru.PushFront(c)
				p.maybeEvict()
			}
			if c.state == chunkLoading {
				c.waiters = append(c.waiters, func(err error) {
					if err != nil {
						oneDone(err)
						return
					}
					copy(c.data, data[srcFrom:srcFrom+count])
					c.dirty = true
					oneDone(nil)
				})
				continue
			}
			copy(c.data, data[srcFrom:srcFrom+count])
			c.dirty = true
			p.touch(c)
			p.eng.After(0, func() { oneDone(nil) })
			continue
		}
		p.withChunk(no, func(c *chunk, err error) {
			if err == nil {
				copy(c.data[dstFrom:dstFrom+count], data[srcFrom:srcFrom+count])
				c.dirty = true
				p.touch(c)
			}
			oneDone(err)
		})
	}
}

// withChunk runs fn with the chunk resident (read-through on miss).
func (p *Pool) withChunk(no int64, fn func(*chunk, error)) {
	c := p.chunks[no]
	if c != nil {
		if c.state == chunkValid {
			p.stats.Hits++
			// Completion is asynchronous even on a hit, like a page-cache
			// read returning to userspace. The reference pins the chunk's
			// data against eviction (which would recycle the buffer) until
			// the callback has run.
			c.refs++
			p.eng.After(0, func() {
				c.refs--
				fn(c, nil)
			})
			return
		}
		// Loading: piggyback.
		p.stats.Hits++
		c.waiters = append(c.waiters, func(err error) {
			if err != nil {
				fn(nil, err)
				return
			}
			fn(c, nil)
		})
		return
	}
	p.stats.Misses++
	c = &chunk{no: no, state: chunkLoading, data: p.getBuf()}
	p.chunks[no] = c
	c.lruElem = p.lru.PushFront(c)
	p.maybeEvict()
	cs := int64(p.cfg.ChunkBytes)
	p.disk.ReadSectorsInto(no*cs/SectorSize, c.data, func(err error) {
		if err != nil {
			p.dropChunk(c)
			fn(nil, err)
			for _, w := range c.waiters {
				w(err)
			}
			return
		}
		c.state = chunkValid
		fn(c, nil)
		for _, w := range c.waiters {
			w(nil)
		}
		c.waiters = nil
	})
}

// maybeEvict keeps residency under capacity: clean LRU chunks are dropped;
// dirty LRU chunks get a writeback started and are dropped on completion.
func (p *Pool) maybeEvict() {
	for p.Resident() > p.cfg.CapacityBytes {
		e := p.lru.Back()
		if e == nil {
			return
		}
		c := e.Value.(*chunk)
		if c.state == chunkLoading || c.wb || c.refs > 0 {
			// Move it off the back so we can examine others; it will be
			// reconsidered later.
			p.lru.MoveToFront(e)
			return
		}
		if c.dirty {
			p.writeback(c, func() {
				if c.dirty || c.refs > 0 {
					// Re-dirtied or re-referenced while the writeback was
					// in flight: the data must survive; a later
					// sync/eviction will retry.
					return
				}
				p.dropChunk(c)
				p.stats.Evictions++
			})
			return
		}
		p.dropChunk(c)
		p.stats.Evictions++
	}
}

func (p *Pool) writeback(c *chunk, then func()) {
	c.wb = true
	c.dirty = false
	p.stats.Writebacks++
	cs := int64(p.cfg.ChunkBytes)
	// Stage through a recycled buffer so a concurrent overwrite of the
	// chunk cannot race the in-flight disk write.
	data := p.getBuf()
	copy(data, c.data)
	p.disk.WriteSectors(c.no*cs/SectorSize, data, func(err error) {
		p.putBuf(data)
		c.wb = false
		if err != nil {
			c.dirty = true // keep it; a later sync retries
		}
		if then != nil {
			then()
		}
	})
}

// Sync writes every dirty chunk back and issues a device flush.
// Writebacks are issued in ascending chunk order: map iteration order
// would vary run to run and leak into the device's event schedule,
// breaking bit-for-bit determinism.
func (p *Pool) Sync(cb func(err error)) {
	var dirty []*chunk
	for _, c := range p.chunks { //kite:orderok sorted by chunk number below
		if c.dirty && c.state == chunkValid && !c.wb {
			dirty = append(dirty, c)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].no < dirty[j].no })
	remaining := len(dirty)
	if remaining == 0 {
		p.disk.Flush(func(err error) { cb(err) })
		return
	}
	for _, c := range dirty {
		p.writeback(c, func() {
			remaining--
			if remaining == 0 {
				p.disk.Flush(func(err error) { cb(err) })
			}
		})
	}
}

// DirtyChunks returns how many chunks await writeback.
func (p *Pool) DirtyChunks() int {
	n := 0
	for _, c := range p.chunks { //kite:orderok count
		if c.dirty {
			n++
		}
	}
	return n
}

func (p *Pool) validate(off int64, n int) error {
	if off < 0 || n <= 0 {
		return fmt.Errorf("bufpool: bad range (off %d, %d bytes)", off, n)
	}
	if off+int64(n) > p.SizeBytes() {
		return fmt.Errorf("bufpool: range beyond disk (off %d + %d)", off, n)
	}
	return nil
}
