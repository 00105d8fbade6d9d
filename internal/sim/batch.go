package sim

// This file is the coalesced-wake API: FIFO, an allocation-free ring
// queue for burst payloads, and Batch, which keeps at most one engine
// event pending no matter how many items are waiting behind it. Line
// (line.go) puts the two together for the common case; a producer
// enqueues payloads for free and pays for a single wake per burst.

// FIFO is a growable ring-buffer queue. Push and Pop are O(1) and
// allocation-free once the buffer has reached its high-water mark — the
// spare slots act as the payload free-list, mirroring the engine's event
// heap. The zero value is ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head item; it panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references held by the recycled slot
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns a pointer to the head item without removing it, or nil when
// the queue is empty. The pointer is invalidated by the next Push or Pop.
func (q *FIFO[T]) Peek() *T {
	if q.n == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// grow doubles the ring from 16 slots, so its length is always a power of
// two and Push and Pop index it with a mask.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]T, size) //kite:alloc-ok amortized doubling; capacity is monotone
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Batch coalesces bursts of deadline-driven work into single engine
// events. A producer calls Arm(at) after queueing work due at time at;
// Batch guarantees the flush callback runs at the earliest armed deadline
// while keeping at most one *live* event in the engine, and the callback
// closure is created once at construction — so arming is allocation-free
// regardless of burst size. The flush callback drains whatever work has
// matured and re-arms for the next deadline if any remains.
//
// Like everything in sim, a Batch belongs to exactly one engine/goroutine.
type Batch struct {
	eng   *Engine
	flush func()
	fire  func() // cached; scheduling it never allocates
	armed bool
	due   Time
}

// NewBatch creates a batch that runs flush when an armed deadline matures.
func NewBatch(eng *Engine, flush func()) *Batch {
	if flush == nil {
		panic("sim: batch needs a flush callback")
	}
	b := &Batch{eng: eng, flush: flush}
	b.fire = b.onFire
	return b
}

// Armed reports whether a flush is pending.
func (b *Batch) Armed() bool { return b.armed }

// Arm schedules the flush to run no later than virtual time at (clamped to
// now). Arming an already-armed batch with an equal or later deadline is
// free — the pending flush covers it; an earlier deadline schedules a
// superseding event and the out-paced one becomes a no-op when it fires.
func (b *Batch) Arm(at Time) {
	if at < b.eng.Now() {
		at = b.eng.Now()
	}
	if b.armed && b.due <= at {
		return
	}
	b.armed = true
	b.due = at
	b.eng.Schedule(at, b.fire)
}

func (b *Batch) onFire() {
	// A stale event — superseded by an earlier Arm or already serviced by
	// a prior flush — finds the batch disarmed or not yet due and yields.
	if !b.armed || b.eng.Now() < b.due {
		return
	}
	b.armed = false
	b.flush()
}
