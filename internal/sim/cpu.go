package sim

import (
	"fmt"
	"strconv"
)

// CPU models one virtual CPU of a simulated machine or Xen domain. Work is
// charged to a CPU with Charge; concurrent charges serialize behind each
// other exactly like runnable work on a single core. The CPU keeps lifetime
// busy-time totals plus a resettable window so experiments can report
// utilization over a measurement interval (Figure 10b).
type CPU struct {
	eng  *Engine
	name string // a pool CPU's is the pool's prefix: see Name
	idx  int32  // index in its pool; -1 outside one

	busyUntil Time // when currently queued work finishes
	busyTotal Time // lifetime busy nanoseconds

	windowStart Time
	windowBusy  Time
}

// NewCPU returns a CPU attached to eng. The name appears in diagnostics.
func NewCPU(eng *Engine, name string) *CPU {
	return &CPU{eng: eng, name: name, idx: -1, windowStart: eng.Now()}
}

// Name returns the identifier given at construction; a pool's CPU i is
// named prefix/i, made when asked, so a pool keeps no string per CPU.
//
//kite:coldpath diagnostics only: names the CPU in a panic or a report
func (c *CPU) Name() string {
	if c.idx < 0 {
		return c.name
	}
	return c.name + "/" + strconv.Itoa(int(c.idx))
}

// Engine returns the engine this CPU is attached to.
func (c *CPU) Engine() *Engine { return c.eng }

// SetEngine rebinds the CPU to another engine — used to pin a per-queue
// vCPU to its cluster shard so charges read the shard-local clock and Exec
// schedules on the shard-local heap. A pinned CPU must only be charged from
// its shard.
func (c *CPU) SetEngine(eng *Engine) { c.eng = eng }

// RecentlyActive reports whether this CPU ran work within the past window
// (or is running now) — the per-CPU form of the pool-level warm check, for
// interrupt delivery pinned to one vCPU. busyUntil is the time the last
// charged work completes and never decreases, so it doubles as the
// last-charge watermark.
func (c *CPU) RecentlyActive(now, window Time) bool {
	return c.busyUntil+window >= now && c.busyUntil > 0
}

// Charge queues cost nanoseconds of work on the CPU and returns the virtual
// time at which that work completes. The work begins when all previously
// charged work has drained (or now, if the CPU is idle). Zero cost returns
// the current completion horizon without consuming time.
func (c *CPU) Charge(cost Time) Time {
	return c.ChargeAt(c.eng.Now(), cost)
}

// ChargeAt queues cost nanoseconds of work that cannot begin before the
// virtual time at: the work starts at the latest of now, at, and the end of
// the work already queued. It exists so a batched event can charge for
// several arrivals in one execution while reproducing exactly the busy-time
// trace the per-arrival events would have produced — at is each item's true
// arrival time, which may lie beyond the executing event's timestamp.
func (c *CPU) ChargeAt(at, cost Time) Time {
	if cost < 0 {
		panic(fmt.Sprintf("sim: negative cpu cost %v on %s", cost, c.Name()))
	}
	start := c.eng.Now()
	if at > start {
		start = at
	}
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end := start + cost
	c.busyUntil = end
	c.busyTotal += cost
	c.windowBusy += cost
	return end
}

// Exec charges cost and schedules fn at the completion time. It is the
// common "do work, then produce the effect" idiom.
func (c *CPU) Exec(cost Time, fn func()) {
	done := c.Charge(cost)
	c.eng.Schedule(done, fn)
}

// FreeAt returns the time at which the CPU becomes idle given already
// queued work.
func (c *CPU) FreeAt() Time {
	if c.busyUntil > c.eng.Now() {
		return c.busyUntil
	}
	return c.eng.Now()
}

// BusyTotal returns lifetime busy nanoseconds.
func (c *CPU) BusyTotal() Time { return c.busyTotal }

// ResetWindow starts a new utilization measurement window at the current
// virtual time.
func (c *CPU) ResetWindow() {
	c.windowStart = c.eng.Now()
	c.windowBusy = 0
}

// WindowUtilization returns busy/elapsed for the current window in [0,1].
// If no time has elapsed it returns 0.
func (c *CPU) WindowUtilization() float64 {
	elapsed := c.eng.Now() - c.windowStart
	if elapsed <= 0 {
		return 0
	}
	u := float64(c.windowBusy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// CPUPool is a set of identical CPUs (an SMP domain). Charges are placed on
// the CPU that frees up earliest, which approximates a work-conserving
// scheduler.
type CPUPool struct {
	cpus       []*CPU
	lastCharge Time
}

// NewCPUPool creates n CPUs named prefix/0..n-1.
func NewCPUPool(eng *Engine, prefix string, n int) *CPUPool {
	if n <= 0 {
		panic("sim: CPU pool needs at least one CPU")
	}
	p := &CPUPool{cpus: make([]*CPU, n), lastCharge: -1 << 60} // sentinel: never charged
	for i := range p.cpus {
		p.cpus[i] = &CPU{eng: eng, name: prefix, idx: int32(i), windowStart: eng.Now()}
	}
	return p
}

// Len returns the number of CPUs in the pool.
func (p *CPUPool) Len() int { return len(p.cpus) }

// CPU returns the i-th CPU.
func (p *CPUPool) CPU(i int) *CPU { return p.cpus[i] }

// Slice returns a sub-pool sharing CPUs [lo,hi) with the parent. The CPUs
// themselves are shared (busy time charged through either view lands on the
// same vCPU); only the pool-level last-charge watermark is separate. This
// is how a component is restricted to the vCPUs left over after per-queue
// workers were pinned to cluster shards.
func (p *CPUPool) Slice(lo, hi int) *CPUPool {
	if lo < 0 || hi > len(p.cpus) || lo >= hi {
		panic(fmt.Sprintf("sim: bad CPU pool slice [%d,%d) of %d", lo, hi, len(p.cpus)))
	}
	return &CPUPool{cpus: p.cpus[lo:hi:hi], lastCharge: p.lastCharge}
}

// Pick returns the CPU that will become free earliest: the lowest-index
// idle CPU, or else the lowest index at the minimum busy-until time. The
// scan stops at the first idle CPU, since none can be freer; until then it
// keeps the minimum without a branch, and a second pass finds the first CPU
// at it.
func (p *CPUPool) Pick() *CPU {
	cpus := p.cpus
	now := cpus[0].eng.Now()
	m := cpus[0].busyUntil
	for _, c := range cpus {
		if c.busyUntil <= now {
			return c
		}
		m = min(m, c.busyUntil)
	}
	i := 0
	for cpus[i].busyUntil != m {
		i++
	}
	return cpus[i]
}

// Charge places cost on the earliest-free CPU and returns completion time.
func (p *CPUPool) Charge(cost Time) Time {
	end := p.Pick().Charge(cost)
	if end > p.lastCharge {
		p.lastCharge = end
	}
	return end
}

// RecentlyActive reports whether any CPU in the pool ran work within the
// past `window` (or is running now). Used by the interrupt model: a VM
// that executed recently takes upcalls warm instead of paying the full
// idle-wake latency.
func (p *CPUPool) RecentlyActive(now, window Time) bool {
	return p.lastCharge+window >= now
}

// ResetWindows resets the utilization window on every CPU.
func (p *CPUPool) ResetWindows() {
	for _, c := range p.cpus {
		c.ResetWindow()
	}
}

// BusyTotal returns the summed lifetime busy time across the pool.
func (p *CPUPool) BusyTotal() Time {
	var total Time
	for _, c := range p.cpus {
		total += c.busyTotal
	}
	return total
}

// WindowUtilization returns the mean utilization across the pool's CPUs for
// the current window.
func (p *CPUPool) WindowUtilization() float64 {
	var sum float64
	for _, c := range p.cpus {
		sum += c.WindowUtilization()
	}
	return sum / float64(len(p.cpus))
}
