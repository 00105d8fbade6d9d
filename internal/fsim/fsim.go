// Package fsim is the extent-based filesystem the storage macrobenchmarks
// run on inside DomU: files map to extents on the paravirtual disk, data
// moves through the bufpool page cache, and the operation mix of
// filebench/sysbench (create, open, read, write, append, stat, delete)
// is supported. Metadata lives in memory — the experiments measure the
// data path through blkfront/blkback, which is fully real; a journaled
// on-disk metadata format would only add noise (documented in DESIGN.md).
package fsim

import (
	"fmt"
	"sort"

	"kite/internal/bufpool"
	"kite/internal/sim"
)

// Grain is the extent allocation granularity.
const Grain = 64 << 10

// extent is a contiguous byte range on the disk.
type extent struct {
	off, len int64
}

// allocator hands out disk extents first-fit with coalescing free.
type allocator struct {
	free []extent // sorted by offset
}

func newAllocator(total int64) *allocator {
	return &allocator{free: []extent{{0, total}}}
}

// alloc returns a contiguous range of n bytes, preferring one adjacent to
// hint (so growing files stay sequential).
func (a *allocator) alloc(n, hint int64) (int64, error) {
	// Try extension at hint first.
	if hint > 0 {
		for i, e := range a.free {
			if e.off == hint && e.len >= n {
				a.take(i, n)
				return hint, nil
			}
		}
	}
	for i, e := range a.free {
		if e.len >= n {
			off := e.off
			a.take(i, n)
			return off, nil
		}
	}
	return 0, fmt.Errorf("fsim: no space for %d bytes", n)
}

func (a *allocator) take(i int, n int64) {
	a.free[i].off += n
	a.free[i].len -= n
	if a.free[i].len == 0 {
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// release returns a range, coalescing with neighbours.
func (a *allocator) release(off, n int64) {
	a.free = append(a.free, extent{off, n})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].off < a.free[j].off })
	out := a.free[:1]
	for _, e := range a.free[1:] {
		last := &out[len(out)-1]
		if last.off+last.len == e.off {
			last.len += e.len
		} else {
			out = append(out, e)
		}
	}
	a.free = out
}

func (a *allocator) freeBytes() int64 {
	var total int64
	for _, e := range a.free {
		total += e.len
	}
	return total
}

// File is one file's metadata.
type File struct {
	name    string
	size    int64
	cap     int64
	extents []extent
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file's logical size.
func (f *File) Size() int64 { return f.size }

// FS is one mounted filesystem.
type FS struct {
	eng   *sim.Engine
	pool  *bufpool.Pool
	cpus  *sim.CPUPool
	costs Costs

	files map[string]*File
	alloc *allocator
}

// Costs models the filesystem's software path (namei, extent lookup).
type Costs struct {
	PerOp sim.Time // metadata/op overhead
}

// DefaultCosts returns the DomU ext4-ish cost profile.
func DefaultCosts() Costs { return Costs{PerOp: 1500 * sim.Nanosecond} }

// New mounts a filesystem over a bufpool-backed disk.
func New(eng *sim.Engine, pool *bufpool.Pool, cpus *sim.CPUPool, costs Costs) *FS {
	return &FS{
		eng: eng, pool: pool, cpus: cpus, costs: costs,
		files: make(map[string]*File),
		alloc: newAllocator(pool.SizeBytes()),
	}
}

// FreeBytes returns unallocated disk space.
func (fs *FS) FreeBytes() int64 { return fs.alloc.freeBytes() }

func (fs *FS) charge() {
	if fs.cpus != nil {
		fs.cpus.Charge(fs.costs.PerOp)
	}
}

// Create makes an empty file.
func (fs *FS) Create(name string) (*File, error) {
	fs.charge()
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("fsim: %s exists", name)
	}
	f := &File{name: name}
	fs.files[name] = f
	return f, nil
}

// Open looks a file up.
func (fs *FS) Open(name string) (*File, error) {
	fs.charge()
	f := fs.files[name]
	if f == nil {
		return nil, fmt.Errorf("fsim: %s does not exist", name)
	}
	return f, nil
}

// Stat returns a file's size.
func (fs *FS) Stat(name string) (int64, bool) {
	fs.charge()
	f := fs.files[name]
	if f == nil {
		return 0, false
	}
	return f.size, true
}

// List returns all file names (sorted).
func (fs *FS) List() []string {
	fs.charge()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files { //kite:orderok names are sorted before return
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and frees its extents.
func (fs *FS) Delete(name string) error {
	fs.charge()
	f := fs.files[name]
	if f == nil {
		return fmt.Errorf("fsim: %s does not exist", name)
	}
	for _, e := range f.extents {
		fs.alloc.release(e.off, e.len)
	}
	delete(fs.files, name)
	return nil
}

// grow ensures capacity for size bytes.
func (fs *FS) grow(f *File, size int64) error {
	for f.cap < size {
		need := size - f.cap
		n := (need + Grain - 1) / Grain * Grain
		hint := int64(0)
		if len(f.extents) > 0 {
			last := f.extents[len(f.extents)-1]
			hint = last.off + last.len
		}
		off, err := fs.alloc.alloc(n, hint)
		if err != nil {
			return err
		}
		if len(f.extents) > 0 {
			last := &f.extents[len(f.extents)-1]
			if last.off+last.len == off {
				last.len += n
				f.cap += n
				continue
			}
		}
		f.extents = append(f.extents, extent{off, n})
		f.cap += n
	}
	return nil
}

// runs translates a file byte range into disk ranges.
func (f *File) runs(off, n int64) []extent {
	var out []extent
	pos := int64(0)
	for _, e := range f.extents {
		if n <= 0 {
			break
		}
		if off < pos+e.len {
			start := off - pos
			if start < 0 {
				start = 0
			}
			count := e.len - start
			if count > n {
				count = n
			}
			out = append(out, extent{e.off + start, count})
			off += count
			n -= count
		}
		pos += e.len
	}
	return out
}

// Write stores data at offset off, growing the file as needed.
func (fs *FS) Write(f *File, off int64, data []byte, cb func(err error)) {
	fs.charge()
	end := off + int64(len(data))
	if err := fs.grow(f, end); err != nil {
		fs.eng.After(0, func() { cb(err) })
		return
	}
	if end > f.size {
		f.size = end
	}
	runs := f.runs(off, int64(len(data)))
	remaining := len(runs)
	if remaining == 0 {
		fs.eng.After(0, func() { cb(nil) })
		return
	}
	var failed error
	consumed := int64(0)
	for _, r := range runs {
		chunk := data[consumed : consumed+r.len]
		consumed += r.len
		fs.pool.Write(r.off, chunk, func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
			remaining--
			if remaining == 0 {
				cb(failed)
			}
		})
	}
}

// Append adds data at the end of the file.
func (fs *FS) Append(f *File, data []byte, cb func(err error)) {
	fs.Write(f, f.size, data, cb)
}

// Read returns n bytes from offset off (short reads at EOF).
func (fs *FS) Read(f *File, off int64, n int, cb func(data []byte, err error)) {
	fs.charge()
	if off >= f.size {
		fs.eng.After(0, func() { cb(nil, nil) })
		return
	}
	if off+int64(n) > f.size {
		n = int(f.size - off)
	}
	runs := f.runs(off, int64(n))
	out := make([]byte, n)
	remaining := len(runs)
	if remaining == 0 {
		fs.eng.After(0, func() { cb(out, nil) })
		return
	}
	var failed error
	pos := int64(0)
	for _, r := range runs {
		dst := out[pos : pos+r.len]
		pos += r.len
		fs.pool.ReadInto(r.off, dst, func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
			remaining--
			if remaining == 0 {
				if failed != nil {
					cb(nil, failed)
					return
				}
				cb(out, nil)
			}
		})
	}
}

// Sync flushes the cache and the device.
func (fs *FS) Sync(cb func(err error)) {
	fs.charge()
	fs.pool.Sync(cb)
}

// Pool exposes the underlying cache (benchmarks reset it between runs).
func (fs *FS) Pool() *bufpool.Pool { return fs.pool }
