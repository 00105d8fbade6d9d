package workload

import (
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// loop is the closed loop every generator runs: n workers, each issuing
// its next op when the last one completes. It keeps the run's statistics
// apart from the generators' state: when the clock started, how many ops
// completed, the bytes they moved and their summed latency.
type loop struct {
	eng     *sim.Engine
	start   sim.Time
	ops     int
	bytes   int64
	latency sim.Time
	live    int
	report  func(*loop)
}

// newLoop starts the clock on a loop of n workers; report runs when the
// last of them exits.
func newLoop(eng *sim.Engine, n int, report func(*loop)) *loop {
	return &loop{eng: eng, start: eng.Now(), live: n, report: report}
}

// run starts the workers in index order.
func (l *loop) run(worker func(i int)) {
	for i, n := 0, l.live; i < n; i++ {
		worker(i)
	}
}

// done records one op issued at t0 that moved bytes.
func (l *loop) done(t0 sim.Time, bytes int) {
	l.latency += l.eng.Now() - t0
	l.ops++
	l.bytes += int64(bytes)
}

// exit retires one worker, whether it finished or never started; the last
// exit reports.
func (l *loop) exit() {
	if l.live--; l.live == 0 {
		l.report(l)
	}
}

// elapsed is the time since the loop started.
func (l *loop) elapsed() sim.Time { return l.eng.Now() - l.start }

// perSec is x per second of elapsed time, 0 before any time has passed.
func (l *loop) perSec(x float64) float64 {
	if l.elapsed() <= 0 {
		return 0
	}
	return x / l.elapsed().Seconds()
}

// avg is the mean latency of the recorded ops.
func (l *loop) avg() sim.Time {
	if l.ops == 0 {
		return 0
	}
	return l.latency / sim.Time(l.ops)
}

// dial opens a TCP connection whose replies are framed: frame returns the
// length of the complete reply at the start of its input, 0 while it is
// incomplete. ready runs once connected (it sends the first request), and
// reply gets each complete reply in order (msg is valid only during the
// call: the buffer compacts in place behind it); fail runs instead if the
// dial is refused.
func dial(client *netstack.Host, ip netpkt.IP, port uint16, frame func([]byte) int,
	ready func(*netstack.Conn), reply func(c *netstack.Conn, msg []byte), fail func()) {

	client.Stack.Dial(ip, port, func(c *netstack.Conn, err error) {
		if err != nil {
			fail()
			return
		}
		var buf []byte
		c.OnData(func(b []byte) {
			buf = append(buf, b...)
			off := 0
			for n := frame(buf[off:]); n > 0; n = frame(buf[off:]) {
				reply(c, buf[off:off+n])
				off += n
			}
			buf = buf[:copy(buf, buf[off:])]
		})
		ready(c)
	})
}
