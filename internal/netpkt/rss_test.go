package netpkt

import (
	"testing"
)

// TestToeplitzKnownVectors pins the Toeplitz construction against the
// Microsoft RSS verification-suite vectors (the first 16 key bytes of the
// canonical 40-byte key suffice for 12-byte inputs).
func TestToeplitzKnownVectors(t *testing.T) {
	var r RSS
	copy(r.key[:], []byte{
		0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
		0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	})
	r.buildTables()
	// Source 66.9.149.187:2794 -> destination 161.142.100.80:1766.
	in := [12]byte{66, 9, 149, 187, 161, 142, 100, 80, 2794 >> 8, 2794 & 0xff, 1766 >> 8, 1766 & 0xff}
	if h := r.toeplitz(&in); h != 0x51ccc178 {
		t.Fatalf("4-tuple hash = %#x, want 0x51ccc178", h)
	}
	// Same addresses, 2-tuple (zero ports is not the published 2-tuple
	// vector — that one omits the port bytes entirely — so check the other
	// published 4-tuple vector instead).
	in2 := [12]byte{199, 92, 111, 2, 65, 69, 140, 83, 14230 >> 8, 14230 & 0xff, 4739 >> 8, 4739 & 0xff}
	if h := r.toeplitz(&in2); h != 0xc626b0ea {
		t.Fatalf("4-tuple hash #2 = %#x, want 0xc626b0ea", h)
	}
}

func udpFrame(src, dst IP, srcPort, dstPort uint16) []byte {
	u := UDPHeader{SrcPort: srcPort, DstPort: dstPort}
	ip := IPv4Header{TTL: 64, Proto: ProtoUDP, Src: src, Dst: dst}
	return ether(Frame{Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeIPv4,
		Payload: ipv4(ip, udp(u, []byte("payload")))})
}

func TestRSSDeterministicAndFlowAffine(t *testing.T) {
	r1 := NewRSS(0x5eed)
	r2 := NewRSS(0x5eed)
	other := NewRSS(0xdead) // different seed
	frame := udpFrame(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 9001, 9000)
	h1, ok1 := r1.FrameHash(frame)
	h2, ok2 := r2.FrameHash(frame)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatalf("same seed, same frame: %#x/%v vs %#x/%v", h1, ok1, h2, ok2)
	}
	if ho, _ := other.FrameHash(frame); ho == h1 {
		t.Fatal("different seeds produced identical hash (astronomically unlikely)")
	}
	// Every packet of a flow maps to the same queue, at any queue count.
	for _, n := range []int{1, 2, 4, 8} {
		q := r1.Queue(frame, n)
		if q < 0 || q >= n {
			t.Fatalf("queue %d out of range [0,%d)", q, n)
		}
		if again := r1.Queue(frame, n); again != q {
			t.Fatalf("flow not sticky: %d then %d", q, again)
		}
	}
}

func TestRSSSpreadsFlows(t *testing.T) {
	r := NewRSS(0x5eed)
	const queues = 4
	var hit [queues]int
	for port := uint16(9000); port < 9064; port++ {
		f := udpFrame(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), port, 7)
		hit[r.Queue(f, queues)]++
	}
	for q, n := range hit {
		if n == 0 {
			t.Fatalf("queue %d received none of 64 distinct flows: %v", q, hit)
		}
	}
}

func TestRSSNonIPGoesToQueueZero(t *testing.T) {
	r := NewRSS(0x5eed)
	req := ether(Frame{Dst: Broadcast, Src: MAC{2}, EtherType: EtherTypeARP,
		Payload: arp(ARP{Op: ARPRequest})})
	if q := r.Queue(req, 8); q != 0 {
		t.Fatalf("ARP steered to queue %d, want 0", q)
	}
	if _, ok := r.FrameHash([]byte{1, 2, 3}); ok {
		t.Fatal("runt frame hashed")
	}
}

func TestRSSZeroAlloc(t *testing.T) {
	r := NewRSS(0x5eed)
	frame := udpFrame(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 9001, 9000)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += r.Queue(frame, 4)
	})
	if allocs != 0 {
		t.Fatalf("steering allocates %.1f/frame, want 0", allocs)
	}
	_ = sink
}

// toeplitzRef is the textbook bit-serial Toeplitz hash: for every set input
// bit p (most significant bit of byte 0 first), XOR in the 32 key bits that
// start at key bit p.
func toeplitzRef(key *[16]byte, in *[12]byte) uint32 {
	keyBit := func(q int) uint32 { return uint32(key[q/8]>>uint(7-q%8)) & 1 }
	var h uint32
	for p := 0; p < 96; p++ {
		if in[p/8]>>uint(7-p%8)&1 == 0 {
			continue
		}
		var w uint32
		for j := 0; j < 32; j++ {
			w = w<<1 | keyBit(p+j)
		}
		h ^= w
	}
	return h
}

// FuzzToeplitz holds the byte-sliced tables to the bit-serial definition
// for any 16-byte key and 12-byte input (shorter arguments are zero-padded,
// longer ones cut). The corpus under testdata/fuzz has the two Microsoft
// vectors of TestToeplitzKnownVectors and one single-bit input at each
// byte position, a different bit in each, under the Microsoft key.
func FuzzToeplitz(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, in []byte) {
		var r RSS
		var tuple [12]byte
		copy(r.key[:], key)
		copy(tuple[:], in)
		r.buildTables()
		if got, want := r.toeplitz(&tuple), toeplitzRef(&r.key, &tuple); got != want {
			t.Fatalf("key %x input %x: tables give %#x, definition %#x", r.key, tuple, got, want)
		}
	})
}
