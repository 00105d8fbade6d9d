package workload

import (
	"bytes"
	"strconv"

	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// ABResult reports an ApacheBench run (Fig 8).
type ABResult struct {
	Requests       int
	Concurrency    int
	TotalTime      sim.Time
	RequestsPerSec float64
	ThroughputMBps float64 // body bytes per second
	AvgLatency     sim.Time
	BodyBytes      uint64
	Errors         int
}

// ApacheBench issues totalRequests GETs for path with the given
// concurrency over keep-alive connections (ab -n total -c conc -k).
func ApacheBench(client *netstack.Host, serverIP netpkt.IP, port uint16,
	path string, totalRequests, concurrency int, done func(ABResult)) {

	issued, errors := 0, 0
	req := []byte("GET " + path + " HTTP/1.1\r\nHost: server\r\n\r\n")
	l := newLoop(client.Stack.Engine(), concurrency, func(l *loop) {
		done(ABResult{
			Requests: l.ops, Concurrency: concurrency,
			TotalTime: l.elapsed(), BodyBytes: uint64(l.bytes), Errors: errors,
			RequestsPerSec: l.perSec(float64(l.ops)),
			ThroughputMBps: l.perSec(float64(l.bytes)) / (1 << 20),
			AvgLatency:     l.avg(),
		})
	})
	l.run(func(int) {
		var sentAt sim.Time
		next := func(c *netstack.Conn) {
			if issued >= totalRequests {
				c.Close()
				l.exit()
				return
			}
			issued++
			sentAt = l.eng.Now()
			c.Send(req)
		}
		dial(client, serverIP, port, httpFrame, next, func(c *netstack.Conn, msg []byte) {
			_, body, _ := consumeHTTPResponse(msg)
			l.done(sentAt, body)
			next(c)
		}, func() { errors++; l.exit() })
	})
}

// httpFrame is consumeHTTPResponse as a dial frame.
func httpFrame(buf []byte) int {
	n, _, _ := consumeHTTPResponse(buf)
	return n
}

// consumeHTTPResponse returns the total length of one complete HTTP
// response at the start of buf and its body size; ok=false if incomplete.
func consumeHTTPResponse(buf []byte) (n, bodyLen int, ok bool) {
	head := bytes.Index(buf, []byte("\r\n\r\n"))
	if head < 0 {
		return 0, 0, false
	}
	const clKey = "Content-Length: "
	idx := bytes.Index(buf[:head], []byte(clKey))
	if idx < 0 {
		return head + 4, 0, true
	}
	lineEnd := bytes.Index(buf[idx:head+2], []byte("\r\n"))
	if lineEnd < 0 {
		lineEnd = head - idx
	}
	cl, err := strconv.Atoi(string(buf[idx+len(clKey) : idx+lineEnd]))
	if err != nil || cl < 0 {
		return head + 4, 0, true
	}
	total := head + 4 + cl
	if len(buf) < total {
		return 0, 0, false
	}
	return total, cl, true
}
