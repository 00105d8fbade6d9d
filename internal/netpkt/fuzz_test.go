package netpkt

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzNetpktDecode feeds arbitrary bytes to every decoder the data path
// runs on guest- or wire-supplied input, and to the reassembler. The
// oracle: nothing panics; every payload a decoder returns lies inside its
// input; and an accepted header re-encoded through HeaderInto/MarshalInto
// decodes back to itself. For the reassembler the input is a run of
// records, a 2-byte big-endian length and that many bytes of IPv4 packet;
// an unfragmented datagram comes back inside its packet. The corpus under
// testdata/fuzz holds one well-formed input per decoder and a fragmented
// datagram in record form.
func FuzzNetpktDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if fr, ok := DecodeFrame(b); ok {
			inside(t, "DecodeFrame", fr.Payload, b)
			if g, ok := DecodeFrame(ether(fr)); !ok || g.Dst != fr.Dst || g.Src != fr.Src ||
				g.EtherType != fr.EtherType || !bytes.Equal(g.Payload, fr.Payload) {
				t.Fatalf("frame %+v does not round-trip: %+v", fr, g)
			}
		}
		if a, ok := DecodeARP(b); ok {
			if g, ok := DecodeARP(arp(a)); !ok || g != a {
				t.Fatalf("arp %+v does not round-trip: %+v", a, g)
			}
		}
		var h, g IPv4Header
		if p, ok := h.Decode(b); ok {
			inside(t, "IPv4Header.Decode", p, b)
			if gp, ok := g.Decode(ipv4(h, p)); !ok || g != h || !bytes.Equal(gp, p) {
				t.Fatalf("ipv4 %+v does not round-trip: %+v", h, g)
			}
		}
		if u, p, ok := DecodeUDP(b); ok {
			inside(t, "DecodeUDP", p, b)
			if g, gp, ok := DecodeUDP(udp(u, p)); !ok || g != u || !bytes.Equal(gp, p) {
				t.Fatalf("udp %+v does not round-trip: %+v", u, g)
			}
		}
		if h, p, ok := DecodeTCP(b); ok {
			inside(t, "DecodeTCP", p, b)
			if g, gp, ok := DecodeTCP(tcp(h, p)); !ok || g != h || !bytes.Equal(gp, p) {
				t.Fatalf("tcp %+v does not round-trip: %+v", h, g)
			}
		}
		if e, p, ok := DecodeICMPEcho(b); ok {
			inside(t, "DecodeICMPEcho", p, b)
			if g, gp, ok := DecodeICMPEcho(icmpEcho(e, p)); !ok || g != e || !bytes.Equal(gp, p) {
				t.Fatalf("icmp echo %+v does not round-trip: %+v", e, g)
			}
		}

		r := NewReassembler()
		for rest := b; len(rest) >= 2; {
			n := min(int(rest[0])<<8|int(rest[1]), len(rest)-2)
			pkt := rest[2 : 2+n]
			rest = rest[2+n:]
			var h IPv4Header
			p, ok := h.Decode(pkt)
			if !ok {
				continue
			}
			full, done := r.Push(&h, p)
			if done && h.FragOff == 0 && h.Flags&FlagMoreFragments == 0 {
				inside(t, "Reassembler.Push", full, pkt)
			}
		}
	})
}

// inside fails t unless p lies within b's bytes.
func inside(t *testing.T, who string, p, b []byte) {
	t.Helper()
	if len(p) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	if at < lo || at+uintptr(len(p)) > lo+uintptr(len(b)) {
		t.Fatalf("%s returned %d payload bytes outside its %d-byte input", who, len(p), len(b))
	}
}
