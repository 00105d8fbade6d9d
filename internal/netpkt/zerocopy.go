package netpkt

import "encoding/binary"

// This file holds the allocation-free marshal/decode layer used by the hot
// data path. The *Into marshal functions write headers into caller-provided
// windows (typically framepool.Buf.Prepend slices) so Ethernet+IP+L4
// encapsulation fills one buffer once; the Decode* functions return header
// values (not pointers) with payload sub-slices aliasing the input, so
// nothing escapes to the heap.

// EthHeaderInto writes the 14-byte Ethernet header into hdr. It takes the
// fields, not a Frame: a Frame literal built only to be written out costs
// a store-forwarding stall when the compiler copies it with wide loads.
func EthHeaderInto(hdr []byte, dst, src MAC, etherType uint16) {
	_ = hdr[EthHeaderLen-1]
	copy(hdr[0:6], dst[:])
	copy(hdr[6:12], src[:])
	binary.BigEndian.PutUint16(hdr[12:14], etherType)
}

// DecodeFrame parses an Ethernet frame without allocating. Payload aliases b.
func DecodeFrame(b []byte) (f Frame, ok bool) {
	if len(b) < EthHeaderLen {
		return Frame{}, false
	}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.EtherType = binary.BigEndian.Uint16(b[12:14])
	f.Payload = b[EthHeaderLen:]
	return f, true
}

// MarshalInto writes the 28-byte ARP body into b and returns its length.
func (a *ARP) MarshalInto(b []byte) int {
	_ = b[27]
	binary.BigEndian.PutUint16(b[0:2], 1)      // htype ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // ptype ipv4
	b[4], b[5] = 6, 4
	binary.BigEndian.PutUint16(b[6:8], a.Op)
	copy(b[8:14], a.SenderMAC[:])
	copy(b[14:18], a.SenderIP[:])
	copy(b[18:24], a.TargetMAC[:])
	copy(b[24:28], a.TargetIP[:])
	return 28
}

// DecodeARP parses an ARP body without allocating.
func DecodeARP(b []byte) (a ARP, ok bool) {
	if len(b) < 28 {
		return ARP{}, false
	}
	a.Op = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderMAC[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetMAC[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	return a, true
}

// HeaderInto writes the 20-byte IPv4 header (with checksum) into hdr for a
// packet carrying payloadLen payload bytes, updating h.TotalLen. The header
// is built as three big-endian words and checksummed in registers, so no
// byte is read back from hdr.
func (h *IPv4Header) HeaderInto(hdr []byte, payloadLen int) {
	_ = hdr[IPHeaderLen-1]
	h.TotalLen = uint16(IPHeaderLen + payloadLen)
	ff := uint16(h.Flags&FlagMoreFragments)<<13 | (h.FragOff & 0x1fff)
	// Bytes 0-7: version 4 and IHL 5, TOS 0, total length, ID, flags and
	// fragment offset. Bytes 8-15: TTL, protocol, checksum, source.
	// Bytes 16-19: destination.
	w0 := 0x45<<56 | uint64(h.TotalLen)<<32 | uint64(h.ID)<<16 | uint64(ff)
	w1 := uint64(h.TTL)<<56 | uint64(h.Proto)<<48 | uint64(binary.BigEndian.Uint32(h.Src[:]))
	w2 := binary.BigEndian.Uint32(h.Dst[:])
	csum := ^fold(w0>>32 + w0&0xffffffff + w1>>32 + w1&0xffffffff + uint64(w2))
	binary.BigEndian.PutUint64(hdr[0:8], w0)
	binary.BigEndian.PutUint64(hdr[8:16], w1|uint64(csum)<<32)
	binary.BigEndian.PutUint32(hdr[16:20], w2)
}

// Decode parses and checksum-verifies an IPv4 packet into h without
// allocating; the payload aliases b. It fills the caller's variable: a
// header returned by value is stored field by field and copied out with
// wide loads that stall on those narrow stores. On failure h is left as
// it was.
//
//kite:hotpath
func (h *IPv4Header) Decode(b []byte) (payload []byte, ok bool) {
	// Version 4 with a 20-byte header (IHL 5): options are not modelled.
	if len(b) < IPHeaderLen || b[0] != 0x45 {
		return nil, false
	}
	if Checksum(b[:IPHeaderLen]) != 0 {
		return nil, false
	}
	total := binary.BigEndian.Uint16(b[2:4])
	if int(total) > len(b) || total < IPHeaderLen {
		return nil, false
	}
	h.TotalLen = total
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(ff>>13) & FlagMoreFragments // DF and the reserved bit are not modelled
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return b[IPHeaderLen:total], true
}

// HeaderInto writes the 8-byte UDP header into hdr for payloadLen payload
// bytes, updating u.Length. Checksum is omitted as permitted for IPv4 UDP.
func (u *UDPHeader) HeaderInto(hdr []byte, payloadLen int) {
	_ = hdr[UDPHeaderLen-1]
	u.Length = uint16(UDPHeaderLen + payloadLen)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], u.Length)
	hdr[6], hdr[7] = 0, 0
}

// DecodeUDP parses a UDP datagram without allocating.
func DecodeUDP(b []byte) (u UDPHeader, payload []byte, ok bool) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, nil, false
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	if int(u.Length) > len(b) || u.Length < UDPHeaderLen {
		return UDPHeader{}, nil, false
	}
	return u, b[UDPHeaderLen:u.Length], true
}

// HeaderInto writes the 20-byte option-less TCP header into hdr.
func (t *TCPHeader) HeaderInto(hdr []byte) {
	_ = hdr[TCPHeaderLen-1]
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = 5 << 4 // data offset
	hdr[13] = t.Flags
	binary.BigEndian.PutUint16(hdr[14:16], t.Window)
	hdr[16], hdr[17], hdr[18], hdr[19] = 0, 0, 0, 0
}

// DecodeTCP parses a TCP segment without allocating.
func DecodeTCP(b []byte) (t TCPHeader, payload []byte, ok bool) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, nil, false
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return TCPHeader{}, nil, false
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	return t, b[off:], true
}

// HeaderInto writes the 8-byte ICMP echo header into hdr, its checksum
// taken over the header and the payload that follows it.
func (e *ICMPEcho) HeaderInto(hdr, payload []byte) {
	_ = hdr[ICMPHeaderLen-1]
	hdr[0] = e.Type
	hdr[1] = 0
	hdr[2], hdr[3] = 0, 0
	binary.BigEndian.PutUint16(hdr[4:6], e.ID)
	binary.BigEndian.PutUint16(hdr[6:8], e.Seq)
	binary.BigEndian.PutUint16(hdr[2:4], ^fold(sum(hdr[:ICMPHeaderLen])+sum(payload)))
}

// DecodeICMPEcho parses and checksum-verifies an echo message without
// allocating.
func DecodeICMPEcho(b []byte) (e ICMPEcho, payload []byte, ok bool) {
	if len(b) < ICMPHeaderLen {
		return ICMPEcho{}, nil, false
	}
	if Checksum(b) != 0 {
		return ICMPEcho{}, nil, false
	}
	e.Type = b[0]
	e.ID = binary.BigEndian.Uint16(b[4:6])
	e.Seq = binary.BigEndian.Uint16(b[6:8])
	return e, b[ICMPHeaderLen:], true
}
