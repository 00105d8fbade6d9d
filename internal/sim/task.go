package sim

// Task models a wakeable kernel thread with run-to-completion semantics —
// the execution model Kite uses inside rumprun's non-preemptive scheduler.
// An event handler calls Wake; the body runs once per wake batch on the
// owning CPU and is expected to drain whatever queue it serves. Wakes that
// arrive while the body is running coalesce into exactly one re-run, which
// is the same "wake only if sleeping" behaviour the paper describes for the
// pusher and soft_start threads.
type Task struct {
	eng  *Engine
	cpu  *CPU
	body func()
	runF func() // cached t.run method value; scheduling it never allocates

	wakeLatency Time // handler-to-thread dispatch latency (scheduler cost)

	scheduled bool // a run is queued but not started
	running   bool // body currently executing
	rewake    bool // Wake arrived while running
	wakes     uint64
	runs      uint64
}

// NewTask creates a task whose body runs on cpu each time it is woken.
// wakeLatency is the scheduling delay between Wake and the body starting
// (dispatch/IPI/scheduler cost of the hosting OS).
func NewTask(eng *Engine, cpu *CPU, wakeLatency Time, body func()) *Task {
	if body == nil {
		panic("sim: task needs a body")
	}
	t := &Task{eng: eng, cpu: cpu, body: body, wakeLatency: wakeLatency}
	t.runF = t.run
	return t
}

// Wakes returns how many times Wake was called.
func (t *Task) Wakes() uint64 { return t.wakes }

// Runs returns how many times the body actually executed.
func (t *Task) Runs() uint64 { return t.runs }

// Wake requests a body run. If a run is already queued the wake coalesces;
// if the body is currently running, one follow-up run is queued so work
// enqueued mid-run is not lost.
//
// The wake latency is mostly *delay* (the scheduler getting around to the
// thread), not CPU work: only a fraction of it is charged as busy time, so
// a domain handling many small wakeups is not falsely CPU-saturated.
func (t *Task) Wake() {
	t.wakes++
	if t.running {
		t.rewake = true
		return
	}
	if t.scheduled {
		return
	}
	t.scheduled = true
	done := t.cpu.Charge(dispatchCost) // scheduler/dispatch work (cycles)
	at := t.eng.Now() + t.wakeLatency  // sleep-to-run latency (delay)
	if done > at {
		at = done
	}
	t.eng.Schedule(at, t.runF)
}

// dispatchCost is the CPU work of one thread wakeup — roughly constant
// across OSes; what differs per OS is the wake *latency*.
const dispatchCost = 300 * Nanosecond

func (t *Task) run() {
	t.scheduled = false
	t.running = true
	t.runs++
	t.body()
	t.running = false
	if t.rewake {
		// Work arrived while the body ran: the thread never slept, so the
		// re-run costs only a loop iteration, not a scheduler dispatch.
		t.rewake = false
		t.scheduled = true
		t.cpu.Exec(dispatchCost, t.runF)
	}
}
