package sim

import "testing"

// lineModel is the plain-slice reference a Line is held to: every value
// pushed, with the time it is due (at raised to the previous push's) and
// the time it must be handed on (its due time, or the push's own instant
// when that is later: the engine never runs an event in the past).
type lineModel struct {
	last Time
	q    []lineWant
}

type lineWant struct {
	v       int
	due, on Time
}

// TestLineAgainstModel drives random programs of pushes (some earlier than
// the push before, some already in the past), partial RunUntil calls and
// mid-burst Pops against a Line and the plain-slice model. The line must
// hand values on in push order, each at max(at, previous push) with that
// time, and never hold more than one engine event.
func TestLineAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := NewRand(seed)
		e := NewEngine()
		var m lineModel
		var l *Line[int]
		handed := 0
		l = NewLine(e, func(at Time, v int) {
			if len(m.q) == 0 {
				t.Fatalf("seed %d: line handed on %d, model is empty", seed, v)
			}
			w := m.q[0]
			m.q = m.q[1:]
			if v != w.v || at != w.due || e.Now() != w.on {
				t.Fatalf("seed %d: handed on %d due %v at %v, want %d due %v at %v",
					seed, v, at, e.Now(), w.v, w.due, w.on)
			}
			handed++
		})
		next := 0
		for op := 0; op < 400; op++ {
			switch k := r.Intn(10); {
			case k < 6: // push, due anywhere from 50 ns ago to 200 ns ahead
				at := e.Now() + Time(r.Intn(250)) - 50
				due := max(at, m.last)
				m.last = due
				m.q = append(m.q, lineWant{v: next, due: due, on: max(due, e.Now())})
				if got := l.Push(at, next); got != due {
					t.Fatalf("seed %d: Push(%v) = %v, want %v", seed, at, got, due)
				}
				next++
			case k < 9: // run part of the way
				e.RunUntil(e.Now() + Time(r.Intn(120)))
			default: // a consumer takes the head early
				if l.Len() == 0 {
					continue
				}
				at, v := l.Pop()
				if v != m.q[0].v || at != m.q[0].due {
					t.Fatalf("seed %d: Pop = (%v, %d), want (%v, %d)", seed, at, v, m.q[0].due, m.q[0].v)
				}
				m.q = m.q[1:]
			}
			if l.Len() != len(m.q) {
				t.Fatalf("seed %d op %d: Len = %d, model holds %d", seed, op, l.Len(), len(m.q))
			}
			if p := e.Pending(); p > 1 {
				t.Fatalf("seed %d op %d: %d engine events pending, want at most 1", seed, op, p)
			}
		}
		e.Run()
		if l.Len() != 0 || len(m.q) != 0 || e.Pending() != 0 {
			t.Fatalf("seed %d: after Run line holds %d, model %d, %d events pending",
				seed, l.Len(), len(m.q), e.Pending())
		}
		if handed == 0 {
			t.Fatalf("seed %d: nothing handed on", seed)
		}
	}
}
