package workload

import (
	"fmt"

	"kite/internal/apps"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// RedisBenchResult reports one redis-benchmark run (Fig 9).
type RedisBenchResult struct {
	Op        string // "SET" or "GET"
	Threads   int
	Pipeline  int
	Ops       int
	OpsPerSec float64
}

// RedisBench runs totalOps operations of one kind (SET or GET) across
// threads connections with the given pipeline depth (redis-benchmark -P
// 1000 -c threads), using valueBytes values.
func RedisBench(client *netstack.Host, serverIP netpkt.IP, port uint16,
	op string, threads, pipeline, totalOps, valueBytes int, done func(RedisBenchResult)) {

	value := make([]byte, valueBytes)
	sim.NewRand(0x4ed5).Bytes(value)

	run := func() {
		issued := 0
		l := newLoop(client.Stack.Engine(), threads, func(l *loop) {
			done(RedisBenchResult{Op: op, Threads: threads, Pipeline: pipeline,
				Ops: l.ops, OpsPerSec: l.perSec(float64(l.ops))})
		})
		l.run(func(id int) {
			pending := 0
			var sentAt sim.Time
			// pump sends the next pipeline batch once the last one is
			// answered.
			pump := func(c *netstack.Conn) {
				if issued >= totalOps {
					c.Close()
					l.exit()
					return
				}
				var batch []byte
				for i := 0; i < pipeline && issued < totalOps; i++ {
					key := fmt.Sprintf("key:%d:%d", id, issued%1000)
					if op == "SET" {
						batch = append(batch, apps.EncodeSet(key, value)...)
					} else {
						batch = append(batch, apps.EncodeGet(key)...)
					}
					issued++
					pending++
				}
				sentAt = l.eng.Now()
				c.Send(batch)
			}
			dial(client, serverIP, port, consumeKVReply, pump, func(c *netstack.Conn, _ []byte) {
				l.done(sentAt, 0)
				if pending--; pending == 0 {
					pump(c)
				}
			}, l.exit)
		})
	}
	if op != "GET" {
		run()
		return
	}
	// redis-benchmark GET runs against existing keys: seed the keyspace
	// first (one connection, pipelined).
	loaded := 0
	dial(client, serverIP, port, consumeKVReply, func(c *netstack.Conn) {
		var batch []byte
		for id := 0; id < threads; id++ {
			for k := 0; k < 1000; k++ {
				batch = append(batch, apps.EncodeSet(fmt.Sprintf("key:%d:%d", id, k), value)...)
			}
		}
		c.Send(batch)
	}, func(c *netstack.Conn, _ []byte) {
		if loaded++; loaded == threads*1000 {
			c.Close()
			run()
		}
	}, run)
}
