package netpkt

import "encoding/binary"

// This file holds the allocation-free marshal/decode layer used by the hot
// data path. The *Into marshal functions write headers into caller-provided
// windows (typically framepool.Buf.Prepend slices) so Ethernet+IP+L4
// encapsulation fills one buffer once; the Decode* functions return header
// values (not pointers) with payload sub-slices aliasing the input, so
// nothing escapes to the heap.

// HeaderInto writes the 14-byte Ethernet header into hdr.
func (f *Frame) HeaderInto(hdr []byte) {
	_ = hdr[EthHeaderLen-1]
	copy(hdr[0:6], f.Dst[:])
	copy(hdr[6:12], f.Src[:])
	binary.BigEndian.PutUint16(hdr[12:14], f.EtherType)
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
// packet carrying payloadLen payload bytes, updating h.TotalLen.
func (h *IPv4Header) HeaderInto(hdr []byte, payloadLen int) {
	_ = hdr[IPHeaderLen-1]
	h.TotalLen = uint16(IPHeaderLen + payloadLen)
	hdr[0] = 0x45 // v4, ihl 5
	hdr[1] = 0
	binary.BigEndian.PutUint16(hdr[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(hdr[4:6], h.ID)
	ff := uint16(h.Flags&FlagMoreFragments)<<13 | (h.FragOff & 0x1fff)
	binary.BigEndian.PutUint16(hdr[6:8], ff)
	hdr[8] = h.TTL
	hdr[9] = h.Proto
	hdr[10], hdr[11] = 0, 0
	copy(hdr[12:16], h.Src[:])
	copy(hdr[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(hdr[10:12], Checksum(hdr[:IPHeaderLen]))
}

// DecodeIPv4 parses and checksum-verifies an IPv4 packet without
// allocating. The payload aliases b.
func DecodeIPv4(b []byte) (h IPv4Header, payload []byte, ok bool) {
	if len(b) < IPHeaderLen {
		return IPv4Header{}, nil, false
	}
	if b[0]>>4 != 4 {
		return IPv4Header{}, nil, false
	}
	if ihl := int(b[0]&0xf) * 4; ihl != IPHeaderLen {
		return IPv4Header{}, nil, false
	}
	if Checksum(b[:IPHeaderLen]) != 0 {
		return IPv4Header{}, nil, false
	}
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(ff>>13) & FlagMoreFragments // DF and the reserved bit are not modelled
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) > len(b) || h.TotalLen < IPHeaderLen {
		return IPv4Header{}, nil, false
	}
	return h, b[IPHeaderLen:h.TotalLen], true
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

// MarshalInto writes the 8-byte ICMP echo header at the start of b and
// checksums the whole message. The caller must have placed the payload at
// b[8:] already (or zeroed it).
func (e *ICMPEcho) MarshalInto(b []byte) {
	_ = b[ICMPHeaderLen-1]
	b[0] = e.Type
	b[1] = 0
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], e.ID)
	binary.BigEndian.PutUint16(b[6:8], e.Seq)
	binary.BigEndian.PutUint16(b[2:4], Checksum(b))
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
