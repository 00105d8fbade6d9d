package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCPUChargeSerializes(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	if end := c.Charge(100); end != 100 {
		t.Fatalf("first charge completes at %v, want 100", end)
	}
	if end := c.Charge(50); end != 150 {
		t.Fatalf("second charge completes at %v, want 150 (serialized)", end)
	}
}

func TestCPUIdleGapResetsStart(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	c.Charge(10)
	e.RunUntil(1000)
	if end := c.Charge(10); end != 1010 {
		t.Fatalf("charge after idle completes at %v, want 1010", end)
	}
}

func TestCPUZeroChargeNoTime(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	c.Charge(40)
	if end := c.Charge(0); end != 40 {
		t.Fatalf("zero charge returned %v, want 40", end)
	}
	if c.BusyTotal() != 40 {
		t.Fatalf("busy total = %v, want 40", c.BusyTotal())
	}
}

func TestCPUNegativeChargePanics(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	c.Charge(-1)
}

// TestCPUNames: a pool's CPU i is named prefix/i, in its name and in the
// negative-charge panic, as a standalone CPU keeps the name it was given.
func TestCPUNames(t *testing.T) {
	e := NewEngine()
	p := NewCPUPool(e, "ubuntu-guest-7", 23)
	if got := p.CPU(12).Name(); got != "ubuntu-guest-7/12" {
		t.Fatalf("pool CPU 12 named %q", got)
	}
	if got := NewCPU(e, "nic").Name(); got != "nic" {
		t.Fatalf("standalone CPU named %q", got)
	}
	defer func() {
		if r := recover(); r != "sim: negative cpu cost -1ns on ubuntu-guest-7/0" {
			t.Fatalf("negative charge panicked with %q", r)
		}
	}()
	p.CPU(0).Charge(-1)
}

func TestCPUExecRunsAtCompletion(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	var at Time = -1
	c.Exec(70, func() { at = e.Now() })
	e.Run()
	if at != 70 {
		t.Fatalf("Exec callback at %v, want 70", at)
	}
}

func TestCPUUtilizationWindow(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	c.Charge(250)
	e.RunUntil(1000)
	got := c.WindowUtilization()
	if math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	c.ResetWindow()
	e.RunUntil(2000)
	if u := c.WindowUtilization(); u != 0 {
		t.Fatalf("utilization after reset with no work = %v, want 0", u)
	}
}

func TestCPUUtilizationCapsAtOne(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	c.Charge(5000) // work extends past the window end
	e.RunUntil(1000)
	if u := c.WindowUtilization(); u > 1 {
		t.Fatalf("utilization = %v, want <= 1", u)
	}
}

func TestCPUPoolPicksEarliestFree(t *testing.T) {
	e := NewEngine()
	p := NewCPUPool(e, "pool", 2)
	p.Charge(100) // lands on cpu0
	end := p.Charge(100)
	if end != 100 {
		t.Fatalf("second pool charge completes at %v, want 100 (parallel CPU)", end)
	}
	end = p.Charge(100) // both busy until 100 now
	if end != 200 {
		t.Fatalf("third pool charge completes at %v, want 200", end)
	}
}

func TestCPUPoolSizeValidation(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size pool did not panic")
		}
	}()
	NewCPUPool(e, "bad", 0)
}

// Property: total busy time equals the sum of charges, and completion times
// are non-decreasing for a sequence of charges issued at one instant.
func TestCPUAccountingProperty(t *testing.T) {
	prop := func(costs []uint16) bool {
		e := NewEngine()
		c := NewCPU(e, "p")
		var sum Time
		last := Time(0)
		for _, raw := range costs {
			cost := Time(raw)
			end := c.Charge(cost)
			if end < last {
				return false
			}
			last = end
			sum += cost
		}
		return c.BusyTotal() == sum && last == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskCoalescesWakes(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	runs := 0
	task := NewTask(e, c, 10, func() { runs++ })
	task.Wake()
	task.Wake()
	task.Wake()
	e.Run()
	if runs != 1 {
		t.Fatalf("3 wakes before running produced %d runs, want 1 (coalesced)", runs)
	}
	if task.Wakes() != 3 {
		t.Fatalf("wake count = %d, want 3", task.Wakes())
	}
}

func TestTaskRewakeDuringRun(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	var task *Task
	runs := 0
	task = NewTask(e, c, 0, func() {
		runs++
		if runs == 1 {
			task.Wake() // work arrived while we were running
		}
	})
	task.Wake()
	e.Run()
	if runs != 2 {
		t.Fatalf("wake during run produced %d runs, want 2", runs)
	}
}

func TestTaskWakeLatencyDelays(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	var ranAt Time = -1
	task := NewTask(e, c, 10*Microsecond, func() { ranAt = e.Now() })
	task.Wake()
	e.Run()
	if ranAt != 10*Microsecond {
		t.Fatalf("task body ran at %v, want the 10us wake latency", ranAt)
	}
	// Only the dispatch cost is charged as CPU work, not the full latency.
	if c.BusyTotal() != dispatchCost {
		t.Fatalf("wake charged %v of CPU, want %v (dispatch only)", c.BusyTotal(), dispatchCost)
	}
}

func TestTaskNilBodyPanics(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "test")
	defer func() {
		if recover() == nil {
			t.Fatal("nil body did not panic")
		}
	}()
	NewTask(e, c, 0, nil)
}

func TestTaskDrainsQueueExactlyOnce(t *testing.T) {
	// Model the pusher pattern: producer enqueues items and wakes; the task
	// drains the queue. Every item must be processed exactly once.
	e := NewEngine()
	c := NewCPU(e, "dd")
	var queue []int
	var got []int
	task := NewTask(e, c, 5, func() {})
	*task = *NewTask(e, c, 5, func() {
		for len(queue) > 0 {
			got = append(got, queue[0])
			queue = queue[1:]
			c.Charge(3)
		}
	})
	for i := 0; i < 20; i++ {
		i := i
		e.Schedule(Time(i*2), func() {
			queue = append(queue, i)
			task.Wake()
		})
	}
	e.Run()
	if len(got) != 20 {
		t.Fatalf("drained %d items, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("items out of order: %v", got)
		}
	}
}

// pickScan is the pool pick as one scan over the CPUs: the first idle CPU,
// or else the first at the strictly smallest busy-until time. Pick must
// return the same CPU, ties included, or every simulated timeline moves.
func pickScan(p *CPUPool) *CPU {
	now := p.cpus[0].eng.Now()
	best := p.cpus[0]
	if best.busyUntil <= now {
		return best
	}
	for _, c := range p.cpus[1:] {
		if c.busyUntil <= now {
			return c
		}
		if c.busyUntil < best.busyUntil {
			best = c
		}
	}
	return best
}

// Property: on pools of 1 to 40 vCPUs, and on Slice views of them, Pick
// returns the CPU pickScan does after any mix of pool charges through any
// view, direct charges to one CPU and clock steps. Costs and steps are
// multiples of 100 ns, zero included, so busy-until ties and CPUs freeing
// exactly at now are common.
func TestPickMatchesScan(t *testing.T) {
	r := NewRand(0x9c4)
	for n := 1; n <= 40; n++ {
		e := NewEngine()
		root := NewCPUPool(e, "p", n)
		views := []*CPUPool{root}
		for i := 0; i < 3; i++ {
			lo := r.Intn(n)
			views = append(views, root.Slice(lo, lo+1+r.Intn(n-lo)))
		}
		for step := 0; step < 3000; step++ {
			v := views[r.Intn(len(views))]
			if got, want := v.Pick(), pickScan(v); got != want {
				t.Fatalf("pool of %d, step %d: Pick chose %s, the scan %s", n, step, got.Name(), want.Name())
			}
			cost := Time(r.Intn(4)) * 100
			switch r.Intn(4) {
			case 0, 1:
				v.Charge(cost)
			case 2:
				root.CPU(r.Intn(n)).Charge(cost)
			default:
				e.RunUntil(e.Now() + Time(r.Intn(3))*100)
			}
		}
	}
}

// BenchmarkPoolPick22 times Pick on the 22-vCPU Ubuntu guest's pool with
// every vCPU busy, so each pick scans the whole pool. It cycles through 64
// such pools whose busy-until times are drawn at random, so where the
// minimum lies changes from pick to pick as it does in a run; on one pool
// in one state the branch predictor learns the scan.
func BenchmarkPoolPick22(b *testing.B) {
	e := NewEngine()
	r := NewRand(22)
	pools := make([]*CPUPool, 64)
	for i := range pools {
		pools[i] = NewCPUPool(e, "guest", 22)
		for j := 0; j < 22; j++ {
			pools[i].CPU(j).Charge(Time(1 + r.Intn(1000)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink = pools[i&63].Pick()
	}
}

var pickSink *CPU
