// Package netpkt defines the wire formats used by the simulated network:
// Ethernet II frames, ARP, IPv4 (with fragmentation), ICMP echo, UDP, and
// a TCP subset. Packets are serialized to real bytes because frames cross
// the PV driver path through grant-copied pages, and end-to-end integrity
// of those bytes is part of what the tests verify.
package netpkt

import (
	"encoding/binary"
	"fmt"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String renders the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones MAC.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// XenMAC returns a MAC in the Xen OUI (00:16:3e) range, as the toolstack
// assigns to vifs.
func XenMAC(domid uint16, dev byte) MAC {
	return MAC{0x00, 0x16, 0x3e, byte(domid >> 8), byte(domid), dev}
}

// IP is an IPv4 address.
type IP [4]byte

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IPv4 returns an IP from four octets.
func IPv4(a, b, c, d byte) IP { return IP{a, b, c, d} }

// BroadcastIP is the limited broadcast address.
var BroadcastIP = IP{255, 255, 255, 255}

// EtherType values.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// EthHeaderLen is the Ethernet II header size.
const EthHeaderLen = 14

// IPHeaderLen is our fixed (option-less) IPv4 header size.
const IPHeaderLen = 20

// UDPHeaderLen is the UDP header size.
const UDPHeaderLen = 8

// TCPHeaderLen is our fixed (option-less) TCP header size.
const TCPHeaderLen = 20

// ICMPHeaderLen is the ICMP echo header size.
const ICMPHeaderLen = 8

// MTU is the Ethernet payload limit used throughout the testbed.
const MTU = 1500

// Frame is a parsed Ethernet frame.
type Frame struct {
	Dst, Src  MAC
	EtherType uint16
	Payload   []byte
}

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 { return ^fold(sum(b)) }

// sum adds b as big-endian 16-bit words with the carries deferred, which
// RFC 1071 §2 allows at any word width: each 8-byte load is added as its
// two 32-bit halves, then the 4-, 2- and 1-byte tails (an odd last byte is
// the high half of a word). The uint64 cannot overflow below 16 GiB of
// input. fold reduces the total to the 16-bit one's-complement sum.
func sum(b []byte) uint64 {
	var s uint64
	for ; len(b) >= 8; b = b[8:] {
		v := binary.BigEndian.Uint64(b)
		s += v>>32 + v&0xffffffff
	}
	if len(b) >= 4 {
		s += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		s += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		s += uint64(b[0]) << 8
	}
	return s
}

// fold adds the carries of s back in until it fits 16 bits. Each step
// keeps s modulo 0xffff and keeps it nonzero if it was; four steps take
// any uint64 below 0x10000.
func fold(s uint64) uint16 {
	s = s&0xffffffff + s>>32
	s = s&0xffff + s>>16
	s = s&0xffff + s>>16
	s = s&0xffff + s>>16
	return uint16(s)
}

// ARPLen is the serialized size of an IPv4-over-Ethernet ARP body.
const ARPLen = 28

// ARP is an IPv4-over-Ethernet ARP packet.
type ARP struct {
	Op                   uint16 // 1 request, 2 reply
	SenderMAC, TargetMAC MAC
	SenderIP, TargetIP   IP
}

// ARP opcodes.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// IPv4Header is a parsed option-less IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	Flags    uint8  // bit 0 = more fragments (we ignore DF)
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Proto    uint8
	Src, Dst IP
}

// MoreFragments flag bit.
const FlagMoreFragments = 1

// UDPHeader is a parsed UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHeader is a parsed option-less TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// ICMP echo types.
const (
	ICMPEchoRequest = 8
	ICMPEchoReply   = 0
)

// ICMPEcho is a parsed ICMP echo request/reply.
type ICMPEcho struct {
	Type    uint8
	ID, Seq uint16
}
