package netstack

import (
	"errors"
	"fmt"

	"kite/internal/netpkt"
	"kite/internal/sim"
)

// MSS is the TCP maximum segment size over the testbed's 1500-byte MTU.
const MSS = netpkt.MTU - netpkt.IPHeaderLen - netpkt.TCPHeaderLen

// rtoMin/rtoMax clamp the adaptive retransmission timeout (RFC 6298
// style, scaled to the sub-millisecond RTTs of a local 10GbE testbed).
const (
	rtoMin = 3 * sim.Millisecond
	rtoMax = 60 * sim.Millisecond
)

// delayedAckTimeout bounds how long an ACK for a single segment is held.
const delayedAckTimeout = 2 * sim.Millisecond

// A connection gives up after Linux's default number of timeout
// retransmissions without an acknowledgement: tcp_syn_retries for a SYN,
// tcp_retries2 once the peer has answered. The next timeout fails the dial
// or the connection with errTimedOut.
const (
	synRetries = 6
	retries2   = 15
)

// errTimedOut is the error a connection fails with when it gives up.
var errTimedOut = errors.New("netstack: connection timed out")

type connKey struct {
	remote     netpkt.IP
	remotePort uint16
	localPort  uint16
}

type connState int

const (
	stateSynSent connState = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Conn is one TCP connection endpoint. Handlers run on the simulation
// goroutine; OnData receives in-order payload bytes.
type Conn struct {
	stack *Stack
	key   connKey
	state connState

	iss            uint32
	sndUna, sndNxt uint32
	sndMax         uint32 // highest sequence ever sent (survives rewinds)
	rcvNxt         uint32
	peerWnd        int
	cwnd, ssthresh int    // Reno-lite congestion control
	sendQ          []byte // bytes from sndUna upward (unacked + unsent)

	finQueued, finSent, finAcked bool
	finSeq                       uint32
	peerFin                      bool

	rtoArmed   bool
	rtoBackoff uint
	rtoTries   int // timeout retransmissions since the last ACK progress
	ackTimerOn bool
	lastAck    uint32
	dupAcks    int
	ackPending int

	// RTT estimation (RFC 6298, with Karn's rule via sampleValid).
	srtt, rttvar sim.Time
	sampleSeq    uint32
	sampleTime   sim.Time
	sampleValid  bool

	onData   func([]byte)
	onClose  func(err error)
	dialCB   func(*Conn, error)
	acceptCB func(*Conn) // held between SYN and the handshake-completing ACK

	retransmits uint64
	fastRetrans uint64
	rtoRetrans  uint64
}

// Retransmits returns how many go-back-N recoveries the sender performed.
func (c *Conn) Retransmits() uint64 { return c.retransmits }

// OnData installs the receive callback.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnClose installs the close/error callback (fires once).
func (c *Conn) OnClose(fn func(err error)) { c.onClose = fn }

func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// Listen installs an accept callback for a local port. The callback runs
// when a connection completes its handshake.
func (s *Stack) Listen(port uint16, accept func(*Conn)) error {
	if _, taken := s.listeners[port]; taken {
		return fmt.Errorf("netstack: tcp port %d already listening on %s", port, s.Name)
	}
	s.listeners[port] = accept
	return nil
}

// Dial opens a connection to dst:port; cb fires with the established
// connection or an error (reset, or no answer after synRetries SYNs).
func (s *Stack) Dial(dst netpkt.IP, port uint16, cb func(*Conn, error)) *Conn {
	key := connKey{remote: dst, remotePort: port, localPort: s.EphemeralPort()}
	c := &Conn{
		stack: s, key: key, state: stateSynSent,
		iss:      uint32(s.rng.Uint64()),
		peerWnd:  0xffff,
		cwnd:     10 * MSS,
		ssthresh: 1 << 30,
		dialCB:   cb,
	}
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.sndMax = c.sndNxt
	s.conns[key] = c
	s.cpus.Charge(s.costs.Syscall)
	c.sendSegment(netpkt.TCPSyn, c.iss, nil)
	c.armRTO()
	return c
}

// Send queues application data on the connection.
func (c *Conn) Send(data []byte) {
	if c.state == stateClosed {
		return
	}
	s := c.stack
	s.cpus.Charge(s.costs.Syscall + sim.Time(len(data))*s.costs.PerKB/1024)
	c.sendQ = append(c.sendQ, data...)
	c.pump()
}

// Close queues a FIN after pending data drains.
func (c *Conn) Close() {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	c.pump()
}

func (c *Conn) window() int {
	w := c.stack.TCPWindow
	if c.peerWnd < w {
		w = c.peerWnd
	}
	if c.cwnd < w {
		w = c.cwnd
	}
	if w < MSS {
		w = MSS
	}
	return w
}

// onLoss shrinks the congestion window (multiplicative decrease). toOne
// models an RTO (window collapses to one segment so the lost head always
// fits the bottleneck queue).
func (c *Conn) onLoss(toOne bool) {
	half := int(c.sndNxt-c.sndUna) / 2
	if half < 2*MSS {
		half = 2 * MSS
	}
	c.ssthresh = half
	if toOne {
		c.cwnd = MSS
	} else {
		c.cwnd = half
	}
}

// rto returns the current adaptive timeout. Before the first RTT sample
// the timeout is conservative (RFC 6298 starts at a full second; scaled
// down for a local testbed) so loaded first exchanges never spuriously
// fire.
func (c *Conn) rto() sim.Time {
	t := c.srtt + 4*c.rttvar
	if c.srtt == 0 {
		t = 25 * sim.Millisecond
	}
	t <<= c.rtoBackoff
	if t < rtoMin {
		t = rtoMin
	}
	if t > rtoMax {
		t = rtoMax
	}
	return t
}

// sampleRTT folds one measurement into the smoothed estimators.
func (c *Conn) sampleRTT(m sim.Time) {
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
		return
	}
	d := c.srtt - m
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + m) / 8
}

// onAckProgress grows the congestion window: slow start below ssthresh,
// then one MSS per window (additive increase).
func (c *Conn) onAckProgress(acked int) {
	if c.cwnd < c.ssthresh {
		c.cwnd += acked
	} else {
		c.cwnd += MSS * MSS / c.cwnd
	}
	if max := c.stack.TCPWindow; c.cwnd > max {
		c.cwnd = max
	}
}

// pump transmits as much queued data as the window allows, then a FIN if
// one is queued.
func (c *Conn) pump() {
	if c.state == stateClosed || c.state == stateSynSent {
		return
	}
	inFlight := int(c.sndNxt - c.sndUna)
	for inFlight < c.window() && inFlight < len(c.sendQ) {
		n := len(c.sendQ) - inFlight
		if n > MSS {
			n = MSS
		}
		if inFlight+n > c.window() {
			n = c.window() - inFlight
		}
		if n <= 0 {
			break
		}
		seg := c.sendQ[inFlight : inFlight+n]
		flags := uint8(netpkt.TCPAck)
		if inFlight+n == len(c.sendQ) {
			flags |= netpkt.TCPPsh
		}
		c.sendSegment(flags, c.sndNxt, seg)
		if !c.sampleValid {
			c.sampleSeq = c.sndNxt + uint32(n)
			c.sampleTime = c.stack.eng.Now()
			c.sampleValid = true
		}
		c.sndNxt += uint32(n)
		if seqLT(c.sndMax, c.sndNxt) {
			c.sndMax = c.sndNxt
		}
		inFlight += n
	}
	if c.finQueued && !c.finSent && inFlight == len(c.sendQ) {
		c.finSeq = c.sndNxt
		c.sendSegment(netpkt.TCPFin|netpkt.TCPAck, c.sndNxt, nil)
		c.sndNxt++
		if seqLT(c.sndMax, c.sndNxt) {
			c.sndMax = c.sndNxt
		}
		c.finSent = true
	}
	if c.sndNxt != c.sndUna {
		c.armRTO()
	}
}

func (c *Conn) sendSegment(flags uint8, seq uint32, payload []byte) {
	h := netpkt.TCPHeader{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  c.advertWindow(),
	}
	var hdr [netpkt.TCPHeaderLen]byte
	h.HeaderInto(hdr[:])
	c.stack.sendIP(netpkt.ProtoTCP, c.key.remote, hdr[:], payload)
}

func (c *Conn) advertWindow() uint16 {
	w := c.stack.TCPWindow
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

func (c *Conn) armRTO() {
	if c.rtoArmed || c.state == stateClosed {
		return
	}
	c.rtoArmed = true
	c.stack.eng.After(c.rto(), func() {
		c.rtoArmed = false
		if c.state == stateClosed {
			return
		}
		if c.sndNxt == c.sndUna && !(c.finSent && !c.finAcked) && c.state != stateSynSent {
			return // everything acked; timer expires idle
		}
		limit := retries2
		if c.state == stateSynSent {
			limit = synRetries
		}
		if c.rtoTries == limit {
			c.teardown(fmt.Errorf("%w: %s:%d", errTimedOut, c.key.remote, c.key.remotePort))
			return
		}
		c.rtoTries++
		// Go-back-N: rewind and resend from the window start with the
		// congestion window collapsed so the head segment gets through.
		c.retransmits++
		c.rtoRetrans++
		c.rtoBackoff++ // exponential backoff until a fresh sample arrives
		c.sampleValid = false
		if c.state == stateSynSent {
			c.sendSegment(netpkt.TCPSyn, c.iss, nil)
		} else {
			c.onLoss(true)
			c.sndNxt = c.sndUna
			c.finSent = false
			c.pump()
		}
		c.armRTO()
	})
}

func (s *Stack) handleTCP(h *netpkt.IPv4Header, body []byte) {
	t, payload, ok := netpkt.DecodeTCP(body)
	if !ok {
		return
	}
	key := connKey{remote: h.Src, remotePort: t.SrcPort, localPort: t.DstPort}
	c := s.conns[key]

	if c == nil {
		if t.Flags&netpkt.TCPSyn != 0 && t.Flags&netpkt.TCPAck == 0 {
			s.acceptSyn(key, &t)
			return
		}
		if t.Flags&netpkt.TCPRst == 0 {
			s.sendRST(key, &t)
		}
		return
	}
	c.handleSegment(&t, payload)
}

func (s *Stack) acceptSyn(key connKey, t *netpkt.TCPHeader) {
	accept := s.listeners[key.localPort]
	if accept == nil {
		s.sendRST(key, t)
		return
	}
	c := &Conn{
		stack: s, key: key, state: stateSynRcvd,
		iss:      uint32(s.rng.Uint64()),
		peerWnd:  int(t.Window),
		cwnd:     10 * MSS,
		ssthresh: 1 << 30,
		rcvNxt:   t.Seq + 1,
	}
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.sndMax = c.sndNxt
	s.conns[key] = c
	c.acceptCB = accept
	c.sendSegment(netpkt.TCPSyn|netpkt.TCPAck, c.iss, nil)
	c.armRTO()
}

func (s *Stack) sendRST(key connKey, t *netpkt.TCPHeader) {
	h := netpkt.TCPHeader{
		SrcPort: key.localPort, DstPort: key.remotePort,
		Seq: t.Ack, Ack: t.Seq + 1, Flags: netpkt.TCPRst | netpkt.TCPAck,
	}
	var hdr [netpkt.TCPHeaderLen]byte
	h.HeaderInto(hdr[:])
	s.sendIP(netpkt.ProtoTCP, key.remote, hdr[:], nil)
}

func (c *Conn) handleSegment(t *netpkt.TCPHeader, payload []byte) {
	s := c.stack
	if t.Flags&netpkt.TCPRst != 0 {
		c.teardown(fmt.Errorf("netstack: connection reset by %s", c.key.remote))
		return
	}
	c.peerWnd = int(t.Window)

	switch c.state {
	case stateSynSent:
		if t.Flags&(netpkt.TCPSyn|netpkt.TCPAck) == netpkt.TCPSyn|netpkt.TCPAck && t.Ack == c.iss+1 {
			c.state = stateEstablished
			c.sndUna = t.Ack
			c.rtoTries = 0
			c.rcvNxt = t.Seq + 1
			c.sendAckNow()
			if c.dialCB != nil {
				cb := c.dialCB
				c.dialCB = nil
				cb(c, nil)
			}
			c.pump()
		}
		return
	case stateSynRcvd:
		if t.Flags&netpkt.TCPAck != 0 && t.Ack == c.iss+1 {
			c.state = stateEstablished
			c.sndUna = t.Ack
			c.rtoTries = 0
			if c.acceptCB != nil {
				cb := c.acceptCB
				c.acceptCB = nil
				cb(c)
			}
			// fall through: the ACK may carry data
		} else {
			return
		}
	}

	// ACK processing.
	if t.Flags&netpkt.TCPAck != 0 {
		c.processAck(t.Ack)
	}

	// Data processing (in-order only; out-of-order triggers dup ACK).
	if len(payload) > 0 {
		switch {
		case t.Seq == c.rcvNxt:
			c.rcvNxt += uint32(len(payload))
			s.cpus.Charge(s.costs.Syscall + sim.Time(len(payload))*s.costs.PerKB/1024)
			if c.onData != nil {
				c.onData(payload)
			}
			c.scheduleAck(t.Flags&netpkt.TCPPsh != 0)
		case seqLT(t.Seq, c.rcvNxt):
			c.sendAckNow() // duplicate data; re-ack
		default:
			c.sendAckNow() // hole; dup ACK asks for retransmit
		}
	}

	// FIN processing (only when in order).
	if t.Flags&netpkt.TCPFin != 0 && t.Seq+uint32(len(payload)) == c.rcvNxt {
		c.rcvNxt++
		c.peerFin = true
		c.sendAckNow()
		c.teardown(nil)
	}
}

func (c *Conn) processAck(ack uint32) {
	// Validate against the highest sequence ever sent: after a go-back-N
	// rewind, ACKs for pre-rewind data are still legitimate and must
	// advance the window (otherwise a delayed ACK deadlocks the sender).
	if seqLT(c.sndUna, ack) && seqLE(ack, c.sndMax) {
		advanced := ack - c.sndUna
		dataAcked := advanced
		if c.finSent && ack == c.finSeq+1 {
			c.finAcked = true
			dataAcked--
		}
		if int(dataAcked) > len(c.sendQ) {
			dataAcked = uint32(len(c.sendQ))
		}
		c.sendQ = c.sendQ[dataAcked:]
		c.sndUna = ack
		c.rtoTries = 0
		if seqLT(c.sndNxt, ack) {
			c.sndNxt = ack // the rewound send pointer cannot trail sndUna
		}
		if c.sampleValid && !seqLT(ack, c.sampleSeq) {
			c.sampleRTT(c.stack.eng.Now() - c.sampleTime)
			c.sampleValid = false
			c.rtoBackoff = 0
		}
		c.dupAcks = 0
		c.lastAck = ack
		c.onAckProgress(int(dataAcked))
		c.pump()
		if c.finSent && c.finAcked && c.peerFin {
			c.teardown(nil)
		}
		return
	}
	if ack == c.lastAck && c.sndNxt != c.sndUna {
		c.dupAcks++
		if c.dupAcks == 3 { // fast retransmit
			c.dupAcks = 0
			c.retransmits++
			c.fastRetrans++
			c.sampleValid = false // Karn: the timed segment is ambiguous now
			c.onLoss(false)
			c.sndNxt = c.sndUna
			c.finSent = false
			c.pump()
		}
	}
}

func (c *Conn) scheduleAck(push bool) {
	c.ackPending++
	if push || c.ackPending >= 2 {
		c.sendAckNow()
		return
	}
	// Delayed ACK: one timer per connection (as in real TCP — multiple
	// stale timers would emit duplicate ACKs and trigger spurious fast
	// retransmits at the peer).
	if c.ackTimerOn {
		return
	}
	c.ackTimerOn = true
	c.stack.eng.After(delayedAckTimeout, func() {
		c.ackTimerOn = false
		if c.ackPending > 0 && c.state != stateClosed {
			c.sendAckNow()
		}
	})
}

func (c *Conn) sendAckNow() {
	c.ackPending = 0
	c.sendSegment(netpkt.TCPAck, c.sndNxt, nil)
}

func (c *Conn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	delete(c.stack.conns, c.key)
	if c.onClose != nil {
		fn := c.onClose
		c.onClose = nil
		fn(err)
	}
	if c.dialCB != nil {
		cb := c.dialCB
		c.dialCB = nil
		cb(nil, err)
	}
}

// RetransBreakdown returns (fast, rto) retransmission counts.
func (s *Stack) RetransBreakdown() (fast, rto uint64) {
	for _, c := range s.conns { //kite:orderok sums
		fast += c.fastRetrans
		rto += c.rtoRetrans
	}
	return
}
