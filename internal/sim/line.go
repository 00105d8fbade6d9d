package sim

// Line is a delay line: the "charge it, then hand it on in order" queue. A
// producer pushes each value with the virtual time it is due (a CPU
// charge's completion, a wire's arrival) and the line hands it to out at
// that time, in push order, from one coalesced engine event per burst. It
// is one FIFO, one Batch and one watermark: a push due earlier than the
// one before it is held to that one's time, so a line never reorders what
// it carries even when per-value costs differ or charges land on
// different vCPUs. Like everything in sim, a Line belongs to one engine.
type Line[T any] struct {
	q    FIFO[lineEntry[T]]
	wake Batch
	last Time
	out  func(at Time, v T)
}

type lineEntry[T any] struct {
	at Time
	v  T
}

// NewLine creates a line that hands each value to out, with its due time.
func NewLine[T any](eng *Engine, out func(at Time, v T)) *Line[T] {
	l := &Line[T]{out: out}
	l.wake = Batch{eng: eng, flush: l.flush}
	l.wake.fire = l.wake.onFire
	return l
}

// Push queues v due at virtual time at, raised to the previous push's
// time, and returns the time v is due.
func (l *Line[T]) Push(at Time, v T) Time {
	at = max(at, l.last)
	l.last = at
	l.q.Push(lineEntry[T]{at: at, v: v})
	l.wake.Arm(at)
	return at
}

// Len returns the number of values waiting.
func (l *Line[T]) Len() int { return l.q.Len() }

// Pop removes the head value and its due time even if it is not due yet:
// for a consumer that takes a whole burst at once, and for teardown. It
// panics on an empty line.
func (l *Line[T]) Pop() (Time, T) {
	e := l.q.Pop()
	return e.at, e.v
}

// flush hands on every value that is due and re-arms for the next one.
func (l *Line[T]) flush() {
	now := l.wake.eng.Now()
	for l.q.Len() > 0 && l.q.Peek().at <= now {
		e := l.q.Pop()
		l.out(e.at, e.v)
	}
	if p := l.q.Peek(); p != nil {
		l.wake.Arm(p.at)
	}
}
