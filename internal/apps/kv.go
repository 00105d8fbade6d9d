package apps

import (
	"bytes"
	"fmt"
	"strconv"

	"kite/internal/netstack"
	"kite/internal/sim"
)

// KVServer stands in for Redis and Memcached (Figs 7 and 9): an in-memory
// key-value store speaking a line-oriented protocol that pipelines
// naturally over one connection:
//
//	SET <key> <len>\r\n<len bytes>\r\n  ->  OK\r\n
//	GET <key>\r\n                       ->  VALUE <len>\r\n<bytes>\r\n | NIL\r\n
type KVServer struct {
	stack *netstack.Stack
	cpu   *sim.CPU // Redis is single-threaded: one core serves all commands
	data  map[string][]byte

	// PerOp is the CPU charged per command (hashing, dispatch).
	PerOp sim.Time
	// PerKB is the CPU charged per KiB of value moved.
	PerKB sim.Time

	sets, gets, misses uint64
}

// NewKVServer starts a key-value server on port.
func NewKVServer(stack *netstack.Stack, port uint16) (*KVServer, error) {
	s := &KVServer{
		stack: stack,
		cpu:   stack.CPUs().CPU(0),
		data:  make(map[string][]byte),
		PerOp: 5 * sim.Microsecond,
		PerKB: 60 * sim.Nanosecond,
	}
	if err := stack.Listen(port, s.accept); err != nil {
		return nil, err
	}
	return s, nil
}

// Counts returns (sets, gets, misses).
func (s *KVServer) Counts() (sets, gets, misses uint64) { return s.sets, s.gets, s.misses }

func (s *KVServer) accept(c *netstack.Conn) {
	var buf []byte
	c.OnData(func(data []byte) {
		buf = append(buf, data...)
		var reply []byte
		before := s.cpu.BusyTotal()
		for {
			consumed, out, ok := s.step(buf)
			if !ok {
				break
			}
			buf = buf[consumed:]
			reply = append(reply, out...)
		}
		if len(reply) == 0 {
			return
		}
		// The batch's replies leave when the worker finishes the charged
		// command processing — a single-threaded Redis loop, not an
		// infinitely parallel one.
		_ = before
		done := s.cpu.Charge(0) // current completion horizon
		out := reply
		s.stack.Engine().After(done-s.stack.Engine().Now(), func() { c.Send(out) })
	})
}

// step consumes one complete command from buf, returning bytes consumed
// and the response; ok=false means more bytes are needed.
func (s *KVServer) step(buf []byte) (consumed int, reply []byte, ok bool) {
	nl := bytes.Index(buf, []byte("\r\n"))
	if nl < 0 {
		return 0, nil, false
	}
	line := string(buf[:nl])
	fields := bytes.Fields(buf[:nl])
	switch {
	case len(fields) == 3 && string(fields[0]) == "SET":
		n, err := strconv.Atoi(string(fields[2]))
		if err != nil || n < 0 {
			return nl + 2, []byte("ERR bad length\r\n"), true
		}
		total := nl + 2 + n + 2
		if len(buf) < total {
			return 0, nil, false
		}
		val := make([]byte, n)
		copy(val, buf[nl+2:nl+2+n])
		s.data[string(fields[1])] = val
		s.sets++
		s.charge(n)
		return total, []byte("OK\r\n"), true
	case len(fields) == 2 && string(fields[0]) == "GET":
		s.gets++
		val, found := s.data[string(fields[1])]
		if !found {
			s.misses++
			s.charge(0)
			return nl + 2, []byte("NIL\r\n"), true
		}
		s.charge(len(val))
		out := make([]byte, 0, len(val)+24)
		out = append(out, fmt.Sprintf("VALUE %d\r\n", len(val))...)
		out = append(out, val...)
		out = append(out, '\r', '\n')
		return nl + 2, out, true
	default:
		_ = line
		return nl + 2, []byte("ERR unknown command\r\n"), true
	}
}

func (s *KVServer) charge(n int) {
	s.cpu.Charge(s.PerOp + sim.Time(n)*s.PerKB/1024)
}

// EncodeSet builds the wire form of a SET (used by the memtier and
// redis-benchmark clients).
func EncodeSet(key string, value []byte) []byte {
	out := make([]byte, 0, len(value)+len(key)+24)
	out = append(out, fmt.Sprintf("SET %s %d\r\n", key, len(value))...)
	out = append(out, value...)
	out = append(out, '\r', '\n')
	return out
}

// EncodeGet builds the wire form of a GET.
func EncodeGet(key string) []byte { return []byte(fmt.Sprintf("GET %s\r\n", key)) }
