// Package netif defines the shared netif ring protocol between netfront
// and netback (xen/io/netif.h): request/response formats for the Tx and Rx
// rings and the registry through which a backend "maps" a frontend's ring
// pages. One Tx ring carries guest→backend packets, one Rx ring carries
// backend→guest packets; both are allocated by the frontend (§2.2.1).
package netif

import (
	"kite/internal/ring"
	"kite/internal/xen"
)

// RingSize is the netif ring slot count (matching Xen's 256-slot rings).
const RingSize = 256

// MaxQueues caps the negotiated queue count per vif, like xen-netback's
// xenvif_max_queues module parameter.
const MaxQueues = 8

// Status codes in responses (netif.h's NETIF_RSP_*).
const (
	StatusOK      = 0
	StatusError   = -1
	StatusDropped = -2
)

// The ring entries keep netif.h's widths, so each ring's 256 requests and
// 256 responses fill one 4 KiB page, as Xen's shared ring does: a Tx ring
// is 256 × (12 + 4) B, an Rx ring 256 × (8 + 8) B. Offsets and lengths are
// 16 bits wide on the wire; whoever checks one against a page or a buffer
// computes in int, so a hostile Offset+Len cannot wrap past the check.

// TxRequest asks the backend to transmit Len bytes at Offset in a granted
// page (netif_tx_request, less its flags).
type TxRequest struct {
	Ref    xen.GrantRef
	Offset uint16
	ID     uint16
	Len    uint16
}

// TxResponse reports completion of a TxRequest.
type TxResponse struct {
	ID     uint16
	Status int8
}

// RxRequest posts a granted page the backend may fill with a received
// frame (rx-copy mode: the backend grant-copies into it).
type RxRequest struct {
	ID  uint16
	Ref xen.GrantRef
}

// RxResponse reports a filled Rx buffer: Len bytes at Offset in the page
// its ID posted.
type RxResponse struct {
	ID     uint16
	Offset uint16
	Len    uint16
	Status int8
}

// TxRing is one guest→backend ring.
type TxRing = ring.Ring[TxRequest, TxResponse]

// RxRing is one backend→guest ring.
type RxRing = ring.Ring[RxRequest, RxResponse]

// TxRings is the multi-queue set of Tx rings.
type TxRings = ring.MultiRing[TxRequest, TxResponse]

// RxRings is the multi-queue set of Rx rings.
type RxRings = ring.MultiRing[RxRequest, RxResponse]

// NewTxRings allocates n standard-size Tx rings.
func NewTxRings(n int) *TxRings { return ring.NewMulti[TxRequest, TxResponse](n, RingSize) }

// NewRxRings allocates n standard-size Rx rings.
func NewRxRings(n int) *RxRings { return ring.NewMulti[RxRequest, RxResponse](n, RingSize) }

// Channel bundles what a backend obtains by mapping the frontend's shared
// pages: the negotiated set of Tx and Rx rings, one pair per queue. (Event
// channels are negotiated separately through xenstore, as for real.)
type Channel struct {
	Tx *TxRings
	Rx *RxRings
}

// NewChannel allocates a channel with n queue pairs.
func NewChannel(n int) *Channel {
	return &Channel{Tx: NewTxRings(n), Rx: NewRxRings(n)}
}

// NumQueues returns the channel's queue count.
func (c *Channel) NumQueues() int { return c.Tx.NumQueues() }
