package netpkt

import "encoding/binary"

// RSS computes receive-side-scaling flow hashes the way multi-queue NICs
// and xen-netback do: a Toeplitz hash over the IPv4 4-tuple (source and
// destination address and port), so every packet of a flow lands on the
// same queue and per-flow ordering survives multi-queue steering. Real
// stacks randomize the 40-byte Toeplitz key at boot; here the key is
// expanded from a 64-bit seed (splitmix64) carried in the rig config, so
// steering is deterministic and runs stay byte-identical.
type RSS struct {
	// 128-bit Toeplitz key: enough for the 12-byte (96-bit) 4-tuple input
	// plus the 32-bit sliding window.
	key [16]byte
	// tab is the byte-sliced form of the same hash: Toeplitz is linear over
	// GF(2), so the hash is the XOR of one precomputed table entry per
	// input byte. The 12 KiB table is built once at construction, by
	// doubling (see buildTables): one XOR per entry, 3,060 in all, paid
	// once by each bridge FDB, NAT flow table and multi-queue vif end. The
	// key is kept only for documentation and tests.
	tab [12][256]uint32
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRSS expands seed into a Toeplitz key. The same seed always yields the
// same steering decisions. The RSS is built in place on the heap: its
// 12 KiB table would otherwise grow the caller's goroutine stack.
func NewRSS(seed uint64) *RSS {
	r := new(RSS)
	x := seed
	for i := 0; i < len(r.key); i += 8 {
		x = splitmix64(x)
		binary.BigEndian.PutUint64(r.key[i:], x)
	}
	r.buildTables()
	return r
}

// buildTables byte-slices the key into tab (see RSS.tab). Called once at
// construction; tests that plant a key directly call it themselves.
func (r *RSS) buildTables() {
	// win[p] is the 32-bit key window starting at input bit p — what the
	// textbook construction XORs in when input bit p is set.
	hi := binary.BigEndian.Uint64(r.key[0:8])
	lo := binary.BigEndian.Uint64(r.key[8:16])
	var win [96]uint32
	for p := 0; p < 96; p++ {
		win[p] = uint32(hi >> 32)
		hi = hi<<1 | lo>>63
		lo <<= 1
	}
	// By linearity tab[i][v|bit] = tab[i][v] ^ (bit's window). Walking the
	// bits from least to most significant, every v below bit is already
	// built when bit's half of the table is filled from it.
	for i := range r.tab {
		t := &r.tab[i] // t[0] is the zero input's hash: 0
		for k := 0; k < 8; k++ {
			bit := 1 << uint(k)
			w := win[i*8+7-k] // input bits are taken MSB first
			for v := 0; v < bit; v++ {
				t[v|bit] = t[v] ^ w
			}
		}
	}
}

// toeplitz evaluates the Toeplitz hash via the byte-sliced tables: the
// textbook construction XORs in the 32-bit key window at every set input
// bit, and linearity folds each byte's eight windows into one table entry.
//
//kite:hotpath
func (r *RSS) toeplitz(in *[12]byte) uint32 {
	var h uint32
	for i, b := range in {
		h ^= r.tab[i][b]
	}
	return h
}

// Hash12 evaluates the Toeplitz hash over an arbitrary 12-byte input. The
// sharded flow tables (bridge FDB, NAT flows) key on this so their shard
// and slot spreading reuses the same deterministic hash family the RSS
// steering already trusts — a MAC or flow key is padded into the 12-byte
// window by the caller.
//
//kite:hotpath
func (r *RSS) Hash12(in *[12]byte) uint32 { return r.toeplitz(in) }

// FrameHash computes the flow hash of a raw Ethernet frame. For IPv4
// TCP/UDP first fragments it hashes the full 4-tuple; for other IPv4
// packets (ICMP, later fragments — whose L4 header is absent or ambiguous)
// it hashes the 2-tuple with zero ports. ok is false for anything that is
// not a well-formed IPv4 frame; callers steer those to queue 0, like the
// non-IP default queue in real RSS.
func (r *RSS) FrameHash(frame []byte) (hash uint32, ok bool) {
	if len(frame) < EthHeaderLen+IPHeaderLen {
		return 0, false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return 0, false
	}
	ip := frame[EthHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < IPHeaderLen || len(ip) < ihl {
		return 0, false
	}
	var in [12]byte
	copy(in[0:4], ip[12:16]) // src IP
	copy(in[4:8], ip[16:20]) // dst IP
	proto := ip[9]
	fragField := binary.BigEndian.Uint16(ip[6:8])
	firstFrag := fragField&0x1fff == 0 // ports only present in fragment 0
	if firstFrag && (proto == ProtoTCP || proto == ProtoUDP) && len(ip) >= ihl+4 {
		copy(in[8:12], ip[ihl:ihl+4]) // src port, dst port
	}
	return r.toeplitz(&in), true
}

// Queue maps a frame onto one of n queues: its flow hash modulo n, with
// queue 0 for non-IPv4 frames (ARP, control traffic).
func (r *RSS) Queue(frame []byte, n int) int {
	if n <= 1 {
		return 0
	}
	h, ok := r.FrameHash(frame)
	if !ok {
		return 0
	}
	return int(h % uint32(n))
}
