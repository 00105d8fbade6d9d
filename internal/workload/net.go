// Package workload implements the paper's load generators: nuttcp, ping,
// netperf, memtier (Figs 6-7), ApacheBench (Fig 8), redis-benchmark
// (Fig 9), sysbench OLTP and fileio (Figs 10, 12, 13), dd (Fig 11), the
// filebench fileserver/mongodb/webserver personalities (Figs 14-16), and
// perfdhcp (§5.5). Each drives the simulated stack with the same request
// mix and parameters the paper uses and reports the same metrics.
package workload

import (
	"bytes"
	"strconv"

	"kite/internal/apps"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// NuttcpResult reports the UDP throughput test (Fig 6).
type NuttcpResult struct {
	OfferedGbps  float64
	AchievedGbps float64
	LossPct      float64
	Datagrams    uint64
}

// nuttcpPort is the data port the receiver binds.
const nuttcpPort = 5101

// Nuttcp blasts UDP datagrams of bufBytes from the client at rateGbps for
// dur and measures goodput and loss at the receiver (nuttcp -u -w4m -l8k).
func Nuttcp(client *netstack.Host, server *netstack.Stack,
	rateGbps float64, bufBytes int, dur sim.Time, done func(NuttcpResult)) {

	eng := client.Stack.Engine()
	var rxBytes uint64
	var rxDatagrams uint64
	server.BindUDP(nuttcpPort, func(p netstack.UDPPacket) {
		rxBytes += uint64(len(p.Data))
		rxDatagrams++
	})

	var txDatagrams uint64
	payload := make([]byte, bufBytes)
	const tick = 250 * sim.Microsecond
	bytesPerTick := int64(rateGbps * 1e9 / 8 * tick.Seconds())
	var carry int64
	start := eng.Now()
	var pump func()
	pump = func() {
		if eng.Now()-start >= dur {
			// Drain time, then report.
			eng.After(5*sim.Millisecond, func() {
				server.UnbindUDP(nuttcpPort)
				elapsed := dur.Seconds()
				sent := float64(txDatagrams * uint64(bufBytes))
				res := NuttcpResult{
					OfferedGbps:  rateGbps,
					AchievedGbps: float64(rxBytes) * 8 / elapsed / 1e9,
					Datagrams:    rxDatagrams,
				}
				if sent > 0 {
					res.LossPct = 100 * (sent - float64(rxBytes)) / sent
				}
				done(res)
			})
			return
		}
		budget := bytesPerTick + carry
		for budget >= int64(bufBytes) {
			client.Stack.SendUDP(server.IP(), nuttcpPort, 5102, payload)
			txDatagrams++
			budget -= int64(bufBytes)
		}
		carry = budget
		eng.After(tick, pump)
	}
	pump()
}

// PingResult reports a ping sweep (Fig 7).
type PingResult struct {
	Count  int
	AvgRTT sim.Time
	MaxRTT sim.Time
}

// Ping sends count echo requests at the given interval (ping -c count -i
// interval) and reports the average RTT.
func Ping(from *netstack.Stack, to netpkt.IP, count int, interval sim.Time,
	payload int, done func(PingResult)) {

	eng := from.Engine()
	var total, max sim.Time
	got := 0
	var one func()
	one = func() {
		from.Ping(to, payload, func(rtt sim.Time) {
			total += rtt
			if rtt > max {
				max = rtt
			}
			got++
			if got == count {
				done(PingResult{Count: count, AvgRTT: total / sim.Time(count), MaxRTT: max})
				return
			}
			eng.After(interval, one)
		})
	}
	one()
}

// EchoServer installs a TCP echo responder (netperf's TCP_RR peer).
func EchoServer(stack *netstack.Stack, port uint16) error {
	return stack.Listen(port, func(c *netstack.Conn) {
		c.OnData(func(b []byte) { c.Send(b) })
	})
}

// NetperfResult reports the TCP_RR latency test (Fig 7).
type NetperfResult struct {
	Transactions int
	AvgLatency   sim.Time
}

// NetperfRR runs count 1-byte request/response transactions over one
// connection, paced at the given interval (the paper sends 1000 requests
// per second with even intervals).
func NetperfRR(client *netstack.Host, serverIP netpkt.IP, port uint16,
	count int, interval sim.Time, done func(NetperfResult)) {

	eng := client.Stack.Engine()
	client.Stack.Dial(serverIP, port, func(c *netstack.Conn, err error) {
		if err != nil {
			done(NetperfResult{})
			return
		}
		var total sim.Time
		var sentAt sim.Time
		n := 0
		var next func()
		c.OnData(func(b []byte) {
			total += eng.Now() - sentAt
			n++
			if n == count {
				done(NetperfResult{Transactions: n, AvgLatency: total / sim.Time(n)})
				return
			}
			eng.After(interval, next)
		})
		next = func() {
			sentAt = eng.Now()
			c.Send([]byte("r"))
		}
		next()
	})
}

// MemtierResult reports the memcached latency test (Fig 7).
type MemtierResult struct {
	Ops        int
	AvgLatency sim.Time
}

// Memtier runs ops operations with a 1:10 SET:GET ratio and valueBytes
// values against a KV server (memtier_benchmark --ratio=1:10 -d 8192).
func Memtier(client *netstack.Host, serverIP netpkt.IP, port uint16,
	ops, valueBytes int, conns int, done func(MemtierResult)) {

	value := make([]byte, valueBytes)
	sim.NewRand(0x3317).Bytes(value)
	issued := 0
	l := newLoop(client.Stack.Engine(), conns, func(l *loop) {
		done(MemtierResult{Ops: l.ops, AvgLatency: l.avg()})
	})
	l.run(func(int) {
		var sentAt sim.Time
		opIndex := 0
		set := func(c *netstack.Conn) { c.Send(apps.EncodeSet("memtier-key", value)) }
		// Seed the key first so GETs hit; its reply starts the loop.
		dial(client, serverIP, port, consumeKVReply, set, func(c *netstack.Conn, _ []byte) {
			// One reply per op: OK line, VALUE+body, or NIL.
			if opIndex > 0 {
				l.done(sentAt, 0)
			}
			if issued >= ops {
				l.exit()
				return
			}
			issued++
			opIndex++
			sentAt = l.eng.Now()
			if opIndex%11 == 0 { // 1 SET per 10 GETs
				set(c)
			} else {
				c.Send(apps.EncodeGet("memtier-key"))
			}
		}, l.exit)
	})
}

// consumeKVReply returns the byte length of one complete KV reply at the
// start of buf, or 0 if incomplete.
func consumeKVReply(buf []byte) int {
	nl := bytes.Index(buf, []byte("\r\n"))
	if nl < 0 {
		return 0
	}
	if v, ok := bytes.CutPrefix(buf[:nl], []byte("VALUE ")); ok {
		if n, err := strconv.Atoi(string(v)); err == nil && n >= 0 {
			if total := nl + 2 + n + 2; len(buf) >= total {
				return total
			}
			return 0
		}
	}
	return nl + 2
}
