package sim

import (
	"fmt"
	"testing"
)

// TestScheduleStepZeroAllocs is the tentpole's acceptance proof: once the
// heap has reached its high-water mark, a Schedule+Step round trip touches
// only recycled storage. The callback is a long-lived func value, as hot
// callers (Task, Batch, the evtchn upcall) now hold.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Prime the heap to its high-water mark so append never grows.
	for i := 0; i < 1024; i++ {
		e.Schedule(e.Now()+Time(i%7), fn)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+10, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBatchArmZeroAllocs verifies the coalesced-wake path stays
// allocation-free: arming an already-armed batch is free, and even the
// fire/flush cycle reuses the cached closure.
func TestBatchArmZeroAllocs(t *testing.T) {
	e := NewEngine()
	b := NewBatch(e, func() {})
	b.Arm(0)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		b.Arm(e.Now() + 5)
		b.Arm(e.Now() + 1) // earlier deadline: schedules the superseding event
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Batch Arm+flush allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLineZeroAllocs verifies a delay line's push-and-flush cycle stays
// allocation-free once its queue has reached its high-water mark: pushes
// behind the armed one are free, and the flush reuses the cached closures.
func TestLineZeroAllocs(t *testing.T) {
	e := NewEngine()
	l := NewLine(e, func(Time, int) {})
	for i := 0; i < 64; i++ {
		l.Push(e.Now()+Time(i), i)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Push(e.Now()+5, 1)
		l.Push(e.Now()+1, 2) // earlier than the previous push: held to it
		l.Push(e.Now()+9, 3)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Line Push+flush allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTaskWakeZeroAllocs verifies a task wake cycle (the pusher/soft_start
// wake path) does not allocate in steady state.
func TestTaskWakeZeroAllocs(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "c0")
	task := NewTask(e, cpu, Microsecond, func() {})
	task.Wake()
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		task.Wake()
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Task wake cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSchedule measures raw Schedule throughput against a drained
// queue (heap depth ~1).
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}

// BenchmarkScheduleStepDepth sweeps the standing heap depth: each
// iteration schedules one event and pops one with `depth` other events
// resident, which is the regime the full testbed runs in (hundreds to
// thousands of in-flight timers and wakes).
func BenchmarkScheduleStepDepth(b *testing.B) {
	for _, depth := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			fn := func() {}
			r := NewRand(uint64(depth))
			for i := 0; i < depth; i++ {
				e.Schedule(Time(r.Intn(1_000_000)), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(e.Now()+Time(r.Intn(1000)), fn)
				e.Step()
			}
		})
	}
}

// BenchmarkStepDrain measures pure pop throughput: fill the heap with
// randomly ordered events, then drain it.
func BenchmarkStepDrain(b *testing.B) {
	fn := func() {}
	r := NewRand(42)
	at := make([]Time, b.N)
	for i := range at {
		at[i] = Time(r.Intn(1 << 30))
	}
	e := NewEngine()
	for _, t := range at {
		e.Schedule(t, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for e.Step() {
	}
}

// BenchmarkDrain1024 fills a heap with 1,024 events at random times (a
// fleet wave's start on its busiest shard) and drains it: the pop alone,
// reported per event.
func BenchmarkDrain1024(b *testing.B) {
	const n = 1024
	fn := func() {}
	r := NewRand(1024)
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := e.Now()
		for j := 0; j < n; j++ {
			e.Schedule(base+Time(r.Intn(1<<20)), fn)
		}
		b.StartTimer()
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}

// BenchmarkTaskWake measures the coalesced thread-wake cycle used by every
// backend worker in the repository.
func BenchmarkTaskWake(b *testing.B) {
	e := NewEngine()
	cpu := NewCPU(e, "c0")
	task := NewTask(e, cpu, Microsecond, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.Wake()
		e.Run()
	}
}
