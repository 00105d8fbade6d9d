package netpkt

import "testing"

// checksum16 is RFC 1071's reference checksum: b as big-endian 16-bit
// words, an odd last byte padded with a zero, the carries folded in once
// at the end.
func checksum16(b []byte) uint16 {
	var s uint64
	for i := 0; i+1 < len(b); i += 2 {
		s += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if len(b)%2 == 1 {
		s += uint64(b[len(b)-1]) << 8
	}
	for s > 0xffff {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// FuzzChecksum holds the word-wide Checksum to the 16-bit reference on any
// input; the two-piece sum the ICMP header takes, split at an even offset
// (none, the echo header's length, the middle), to the checksum of the
// whole; and the IPv4 header HeaderInto builds from the input's first
// bytes to the reference over its bytes. The corpus under testdata/fuzz
// has odd and even lengths from 0 to 70 B and all-0xff inputs, whose sum
// lands on the fold's carry corner (a nonzero multiple of 0xffff).
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		want := checksum16(b)
		if got := Checksum(b); got != want {
			t.Fatalf("Checksum(% x) = %#04x, want %#04x", b, got, want)
		}
		for _, k := range []int{0, ICMPHeaderLen, len(b) / 4 * 2} {
			if k > len(b) {
				continue
			}
			if got := ^fold(sum(b[:k]) + sum(b[k:])); got != want {
				t.Fatalf("split at %d of % x: %#04x, want %#04x", k, b, got, want)
			}
		}
		if len(b) >= 14 {
			h := IPv4Header{ID: uint16(b[0])<<8 | uint16(b[1]), Flags: b[2] >> 7,
				FragOff: uint16(b[2])<<8 | uint16(b[3]), TTL: b[4], Proto: b[5],
				Src: IP(b[6:10]), Dst: IP(b[10:14])}
			var hdr [IPHeaderLen]byte
			h.HeaderInto(hdr[:], len(b))
			got := uint16(hdr[10])<<8 | uint16(hdr[11])
			hdr[10], hdr[11] = 0, 0
			if want := checksum16(hdr[:]); got != want {
				t.Fatalf("IPv4 header % x carries checksum %#04x, want %#04x", hdr, got, want)
			}
		}
	})
}
