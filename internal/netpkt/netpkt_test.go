package netpkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x00, 0x16, 0x3e, 0x01, 0x02, 0x03}
	if m.String() != "00:16:3e:01:02:03" {
		t.Fatalf("MAC string = %s", m)
	}
}

func TestXenMACUnique(t *testing.T) {
	a := XenMAC(1, 0)
	b := XenMAC(1, 1)
	c := XenMAC(2, 0)
	if a == b || a == c || b == c {
		t.Fatal("XenMAC collisions")
	}
	if a[0] != 0x00 || a[1] != 0x16 || a[2] != 0x3e {
		t.Fatal("XenMAC not in Xen OUI")
	}
}

// The builders below encode through the HeaderInto/MarshalInto writers
// into one buffer, the way the netstack fills a pooled frame.

func ether(f Frame) []byte {
	b := make([]byte, EthHeaderLen+len(f.Payload))
	EthHeaderInto(b, f.Dst, f.Src, f.EtherType)
	copy(b[EthHeaderLen:], f.Payload)
	return b
}

func arp(a ARP) []byte {
	b := make([]byte, ARPLen)
	a.MarshalInto(b)
	return b
}

func ipv4(h IPv4Header, payload []byte) []byte {
	b := make([]byte, IPHeaderLen+len(payload))
	h.HeaderInto(b, len(payload))
	copy(b[IPHeaderLen:], payload)
	return b
}

func udp(u UDPHeader, payload []byte) []byte {
	b := make([]byte, UDPHeaderLen+len(payload))
	u.HeaderInto(b, len(payload))
	copy(b[UDPHeaderLen:], payload)
	return b
}

func tcp(h TCPHeader, payload []byte) []byte {
	b := make([]byte, TCPHeaderLen+len(payload))
	h.HeaderInto(b)
	copy(b[TCPHeaderLen:], payload)
	return b
}

func icmpEcho(e ICMPEcho, payload []byte) []byte {
	b := make([]byte, ICMPHeaderLen+len(payload))
	copy(b[ICMPHeaderLen:], payload)
	e.HeaderInto(b, payload)
	return b
}

// fragment splits an IP payload into MTU-sized IPv4 packets sharing h's
// identification; offsets are in 8-byte units (RFC 791), so each
// fragment's payload is a multiple of 8 bytes.
func fragment(h IPv4Header, payload []byte, mtu int) [][]byte {
	if len(payload) <= mtu-IPHeaderLen {
		h.Flags, h.FragOff = 0, 0
		return [][]byte{ipv4(h, payload)}
	}
	maxData := (mtu - IPHeaderLen) &^ 7
	var out [][]byte
	for off := 0; off < len(payload); off += maxData {
		end := min(off+maxData, len(payload))
		h.Flags, h.FragOff = FlagMoreFragments, uint16(off/8)
		if end == len(payload) {
			h.Flags = 0
		}
		out = append(out, ipv4(h, payload[off:end]))
	}
	return out
}

// push decodes one fragment and offers it to r.
func push(t *testing.T, r *Reassembler, pkt []byte) (IPv4Header, []byte, bool) {
	t.Helper()
	var h IPv4Header
	pl, ok := h.Decode(pkt)
	if !ok {
		t.Fatal("fragment does not decode")
	}
	full, done := r.Push(&h, pl)
	return h, full, done
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Dst: Broadcast, Src: XenMAC(1, 0), EtherType: EtherTypeIPv4, Payload: []byte("data")}
	g, ok := DecodeFrame(ether(f))
	if !ok || g.Dst != f.Dst || g.Src != f.Src || g.EtherType != f.EtherType || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v", g)
	}
}

func TestFrameTooShort(t *testing.T) {
	if _, ok := DecodeFrame(make([]byte, 5)); ok {
		t.Fatal("short frame parsed")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{Op: ARPRequest, SenderMAC: XenMAC(1, 0), SenderIP: IPv4(10, 0, 0, 1), TargetIP: IPv4(10, 0, 0, 2)}
	g, ok := DecodeARP(arp(a))
	if !ok || g != a {
		t.Fatalf("arp mismatch: %+v", g)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4Header{ID: 7, TTL: 64, Proto: ProtoUDP, Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2)}
	pkt := ipv4(h, []byte("payload"))
	var g IPv4Header
	payload, ok := g.Decode(pkt)
	if !ok || g.Src != h.Src || g.Dst != h.Dst || g.Proto != ProtoUDP || string(payload) != "payload" {
		t.Fatalf("ipv4 mismatch: %+v %q", g, payload)
	}
	// Corrupt a header byte: checksum must catch it.
	pkt[9] ^= 0xff
	if _, ok := new(IPv4Header).Decode(pkt); ok {
		t.Fatal("corrupted ipv4 header parsed")
	}
}

func TestIPv4TrailingBytesIgnored(t *testing.T) {
	// Ethernet minimum padding adds trailing bytes beyond TotalLen.
	h := IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 1, 1, 1), Dst: IPv4(2, 2, 2, 2)}
	pkt := append(ipv4(h, []byte("abc")), 0, 0, 0, 0)
	payload, ok := new(IPv4Header).Decode(pkt)
	if !ok || string(payload) != "abc" {
		t.Fatalf("payload with padding = %q", payload)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	g, payload, ok := DecodeUDP(udp(UDPHeader{SrcPort: 1234, DstPort: 53}, []byte("q")))
	if !ok || g.SrcPort != 1234 || g.DstPort != 53 || string(payload) != "q" {
		t.Fatalf("udp mismatch: %+v %q", g, payload)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 80, DstPort: 5555, Seq: 100, Ack: 200, Flags: TCPAck | TCPPsh, Window: 65535}
	g, payload, ok := DecodeTCP(tcp(h, []byte("body")))
	if !ok || g != h || string(payload) != "body" {
		t.Fatalf("tcp mismatch: %+v", g)
	}
}

func TestICMPEchoRoundTripAndChecksum(t *testing.T) {
	b := icmpEcho(ICMPEcho{Type: ICMPEchoRequest, ID: 9, Seq: 3}, []byte("ping-data"))
	g, payload, ok := DecodeICMPEcho(b)
	if !ok || g.Type != ICMPEchoRequest || g.ID != 9 || g.Seq != 3 || string(payload) != "ping-data" {
		t.Fatalf("icmp mismatch: %+v %q", g, payload)
	}
	b[8] ^= 0x55
	if _, _, ok := DecodeICMPEcho(b); ok {
		t.Fatal("corrupted icmp parsed")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: checksum of data plus its checksum is 0.
	data := []byte{0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7}
	c := Checksum(data)
	data[10] = byte(c >> 8)
	data[11] = byte(c)
	if Checksum(data) != 0 {
		t.Fatal("checksum does not self-verify")
	}
}

func TestFragmentSmallPayloadUnfragmented(t *testing.T) {
	h := IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 0, 0, 1), Dst: IPv4(1, 0, 0, 2)}
	pkts := fragment(h, make([]byte, 100), MTU)
	if len(pkts) != 1 {
		t.Fatalf("small payload produced %d fragments", len(pkts))
	}
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	h := IPv4Header{ID: 42, TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 0, 0, 1), Dst: IPv4(1, 0, 0, 2)}
	pkts := fragment(h, payload, MTU)
	if len(pkts) < 6 {
		t.Fatalf("8KB over 1500 MTU produced only %d fragments", len(pkts))
	}
	r := NewReassembler()
	var got []byte
	for i, pkt := range pkts {
		_, full, done := push(t, r, pkt)
		if done && i != len(pkts)-1 {
			t.Fatal("reassembly completed early")
		}
		if done {
			got = full
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload mismatch")
	}
	if len(r.pending) != 0 {
		t.Fatal("reassembler leaked state")
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i)
	}
	h := IPv4Header{ID: 9, TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 0, 0, 1), Dst: IPv4(1, 0, 0, 2)}
	pkts := fragment(h, payload, MTU)
	r := NewReassembler()
	var got []byte
	// Deliver in reverse.
	for i := len(pkts) - 1; i >= 0; i-- {
		if _, full, done := push(t, r, pkts[i]); done {
			got = full
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassembleMissingFragmentIncomplete(t *testing.T) {
	payload := make([]byte, 5000)
	h := IPv4Header{ID: 9, TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 0, 0, 1), Dst: IPv4(1, 0, 0, 2)}
	pkts := fragment(h, payload, MTU)
	r := NewReassembler()
	for i, pkt := range pkts {
		if i == 1 {
			continue // drop one fragment
		}
		if _, _, done := push(t, r, pkt); done {
			t.Fatal("reassembly completed despite missing fragment")
		}
	}
	if len(r.pending) != 1 {
		t.Fatal("incomplete datagram not retained")
	}
}

func TestInterleavedDatagramsReassemble(t *testing.T) {
	h1 := IPv4Header{ID: 1, TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 0, 0, 1), Dst: IPv4(1, 0, 0, 2)}
	h2 := IPv4Header{ID: 2, TTL: 64, Proto: ProtoUDP, Src: IPv4(1, 0, 0, 1), Dst: IPv4(1, 0, 0, 2)}
	p1 := bytes.Repeat([]byte{0xAA}, 4000)
	p2 := bytes.Repeat([]byte{0xBB}, 4000)
	f1 := fragment(h1, p1, MTU)
	f2 := fragment(h2, p2, MTU)
	r := NewReassembler()
	completed := 0
	for i := 0; i < len(f1) || i < len(f2); i++ {
		for _, set := range [][][]byte{f1, f2} {
			if i < len(set) {
				if hh, full, done := push(t, r, set[i]); done {
					completed++
					want := byte(0xAA)
					if hh.ID == 2 {
						want = 0xBB
					}
					if full[0] != want || len(full) != 4000 {
						t.Fatal("interleaved reassembly mixed datagrams")
					}
				}
			}
		}
	}
	if completed != 2 {
		t.Fatalf("completed %d datagrams, want 2", completed)
	}
}

// Property: fragmentation then reassembly is the identity for any payload
// size up to 64 KB - headers.
func TestFragmentReassembleProperty(t *testing.T) {
	prop := func(seed uint32, sizeRaw uint16) bool {
		size := int(sizeRaw)%40000 + 1
		payload := make([]byte, size)
		x := seed
		for i := range payload {
			x = x*1664525 + 1013904223
			payload[i] = byte(x >> 24)
		}
		h := IPv4Header{ID: uint16(seed), TTL: 64, Proto: ProtoUDP,
			Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2)}
		r := NewReassembler()
		var got []byte
		for _, pkt := range fragment(h, payload, MTU) {
			var hh IPv4Header
			pl, ok := hh.Decode(pkt)
			if !ok {
				return false
			}
			if full, done := r.Push(&hh, pl); done {
				got = full
			}
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
