package workload

import (
	"bytes"
	"strconv"

	"kite/internal/apps"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// OLTP transaction shape: sysbench oltp_read_only executes 10 point
// selects and 4 range queries (100 rows each) per transaction.
const (
	oltpPointsPerTx = 10
	oltpRangesPerTx = 4
	oltpRangeRows   = 100
)

// OLTPResult reports a sysbench MySQL run (Figs 10a, 13).
type OLTPResult struct {
	Threads      int
	Transactions int
	Queries      int
	TPS          float64
	QPS          float64
	AvgLatency   sim.Time
	// GuestCPUUtil is DomU's mean CPU utilization during the run (Fig 10b).
	GuestCPUUtil float64
}

// OLTPNetwork drives the SQL wire protocol from the client machine with
// the given number of connections for dur (Fig 10: the network-domain
// test; the dataset fits memory).
func OLTPNetwork(client *netstack.Host, serverIP netpkt.IP, port uint16,
	guestCPUs *sim.CPUPool, tables int, rows int64,
	threads int, dur sim.Time, done func(OLTPResult)) {

	rng := sim.NewRand(uint64(threads)*7919 + 17)
	o := newOLTP(client.Stack.Engine(), guestCPUs, rng, tables, rows, threads, dur, done)
	o.run(func(int) {
		var step func()
		dial(client, serverIP, port, consumeSQLReply, func(c *netstack.Conn) {
			step = o.worker(func(table int, row int64, rangeRows int) {
				c.Send([]byte(sqlQuery(table, row, rangeRows)))
			}, func() { c.Close(); o.exit() })
			step()
		}, func(*netstack.Conn, []byte) { step() }, o.exit)
	})
}

// OLTPLocal drives a SQLDB directly inside the guest with the given
// concurrency for dur (Fig 13: the storage-domain test; the dataset
// exceeds the page cache, so queries miss to the paravirtual disk).
func OLTPLocal(db *apps.SQLDB, guestCPUs *sim.CPUPool, eng *sim.Engine,
	tables int, rows int64, threads int, dur sim.Time, done func(OLTPResult)) {

	rng := sim.NewRand(uint64(threads)*104729 + 23)
	o := newOLTP(eng, guestCPUs, rng, tables, rows, threads, dur, done)
	o.run(func(int) {
		var step func()
		reply := func([]byte, error) { step() }
		step = o.worker(func(table int, row int64, rangeRows int) {
			if rangeRows > 0 {
				db.RangeSelect(table, row, rangeRows, reply)
			} else {
				db.PointSelect(table, row, reply)
			}
		}, o.exit)
		step()
	})
}

// oltp is one sysbench run: its workers share one RNG, and each op of the
// loop is one transaction.
type oltp struct {
	*loop
	rng     *sim.Rand
	tables  int
	rows    int64
	dur     sim.Time
	queries int
}

func newOLTP(eng *sim.Engine, guestCPUs *sim.CPUPool, rng *sim.Rand, tables int, rows int64,
	threads int, dur sim.Time, done func(OLTPResult)) *oltp {

	guestCPUs.ResetWindows()
	o := &oltp{rng: rng, tables: tables, rows: rows, dur: dur}
	o.loop = newLoop(eng, threads, func(l *loop) {
		done(OLTPResult{
			Threads: threads, Transactions: l.ops, Queries: o.queries,
			TPS: l.perSec(float64(l.ops)), QPS: l.perSec(float64(o.queries)),
			AvgLatency:   l.avg(),
			GuestCPUUtil: guestCPUs.WindowUtilization(),
		})
	})
	return o
}

// worker returns one worker's step: each call issues the next query of its
// transaction through query (rangeRows 0 for a point select) and expects
// to be called again on the reply. At a transaction's end it records it,
// then begins the next, or calls stop once dur has passed.
func (o *oltp) worker(query func(table int, row int64, rangeRows int), stop func()) func() {
	t0 := o.eng.Now()
	left := oltpPointsPerTx + oltpRangesPerTx
	return func() {
		if left == 0 {
			o.done(t0, 0)
			if o.elapsed() >= o.dur {
				stop()
				return
			}
			t0, left = o.eng.Now(), oltpPointsPerTx+oltpRangesPerTx
		}
		left--
		o.queries++
		table := o.rng.Intn(o.tables)
		row := o.rng.Int63n(o.rows)
		if left >= oltpRangesPerTx {
			query(table, row, 0)
			return
		}
		// The last oltpRangesPerTx queries are ranges.
		query(table, min(row, o.rows-oltpRangeRows), oltpRangeRows)
	}
}

// sqlQuery is the wire form of a point select, or of a range select of
// rangeRows rows.
func sqlQuery(table int, row int64, rangeRows int) string {
	q := strconv.Itoa(table) + " " + strconv.FormatInt(row, 10)
	if rangeRows > 0 {
		return "R " + q + " " + strconv.Itoa(rangeRows) + "\n"
	}
	return "P " + q + "\n"
}

// consumeSQLReply returns the length of one complete SQL reply ("D
// <len>\n<bytes>" or "E ...\n") at the start of buf, or 0 if incomplete.
func consumeSQLReply(buf []byte) int {
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return 0
	}
	if nl >= 2 && buf[0] == 'D' {
		if n, err := strconv.Atoi(string(buf[2:nl])); err == nil && n >= 0 {
			if total := nl + 1 + n; len(buf) >= total {
				return total
			}
			return 0
		}
	}
	return nl + 1
}
