package netpkt

type fragKey struct {
	src, dst IP
	id       uint16
	proto    uint8
}

// span is a contiguous byte range [off, end) already received.
type span struct {
	off, end int
}

// fragBuf accumulates one datagram directly in place: each fragment is
// copied once at its final offset, and coverage is tracked as a sorted list
// of merged spans. fragBufs are recycled through the Reassembler's freelist
// so steady-state reassembly does not allocate.
type fragBuf struct {
	buf      []byte
	spans    []span
	haveLast bool
	total    int
}

// Reassembler reassembles fragmented IPv4 packets. It is used by receive
// paths (guest network stacks and host endpoints).
type Reassembler struct {
	pending  map[fragKey]*fragBuf
	freelist []*fragBuf
	// Drops counts datagrams abandoned because of overlapping/duplicate
	// fragments; exposed for diagnostics.
	Drops uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[fragKey]*fragBuf)}
}

// Push offers one IPv4 packet. If it completes a datagram (or was never
// fragmented) the full payload is returned with done=true. The returned
// slice aliases reassembler-owned storage for completed fragmented
// datagrams and is only valid until the next Push — callers must consume
// (or copy) it synchronously.
func (r *Reassembler) Push(h *IPv4Header, payload []byte) (full []byte, done bool) {
	if h.FragOff == 0 && h.Flags&FlagMoreFragments == 0 {
		return payload, true
	}
	key := fragKey{src: h.Src, dst: h.Dst, id: h.ID, proto: h.Proto}
	buf := r.pending[key]
	if buf == nil {
		buf = r.getFragBuf()
		r.pending[key] = buf
	}
	off := int(h.FragOff) * 8
	end := off + len(payload)
	// Copy once, directly at the fragment's final position.
	if end > len(buf.buf) {
		buf.grow(end)
	}
	copy(buf.buf[off:end], payload)
	buf.addSpan(off, end)
	if h.Flags&FlagMoreFragments == 0 {
		buf.haveLast = true
		buf.total = end
	}
	if !buf.haveLast || !buf.covers(buf.total) {
		return nil, false
	}
	out := buf.buf[:buf.total]
	delete(r.pending, key)
	r.putFragBuf(buf)
	return out, true
}

func (r *Reassembler) getFragBuf() *fragBuf {
	if n := len(r.freelist); n > 0 {
		b := r.freelist[n-1]
		r.freelist = r.freelist[:n-1]
		return b
	}
	return &fragBuf{}
}

// putFragBuf recycles b. Its byte storage stays allocated (and may still be
// aliased by a just-returned payload until the next Push reuses it).
func (r *Reassembler) putFragBuf(b *fragBuf) {
	b.spans = b.spans[:0]
	b.haveLast = false
	b.total = 0
	r.freelist = append(r.freelist, b)
}

// grow extends the backing buffer to at least n bytes, geometrically so a
// stream of fragments costs O(log n) allocations until the freelist's
// high-water mark absorbs them entirely.
func (b *fragBuf) grow(n int) {
	c := cap(b.buf)
	if c < 2048 {
		c = 2048
	}
	for c < n {
		c *= 2
	}
	nb := make([]byte, c)
	copy(nb, b.buf)
	b.buf = nb
}

// addSpan records coverage of [off, end), merging with overlapping or
// adjacent spans. The span list stays sorted by offset.
func (b *fragBuf) addSpan(off, end int) {
	// Find insertion point (lists are tiny: linear scan beats sort).
	i := 0
	for i < len(b.spans) && b.spans[i].off < off {
		i++
	}
	b.spans = append(b.spans, span{})
	copy(b.spans[i+1:], b.spans[i:])
	b.spans[i] = span{off: off, end: end}
	// Merge backward with predecessor, then forward over successors.
	if i > 0 && b.spans[i-1].end >= b.spans[i].off {
		if b.spans[i].end > b.spans[i-1].end {
			b.spans[i-1].end = b.spans[i].end
		}
		copy(b.spans[i:], b.spans[i+1:])
		b.spans = b.spans[:len(b.spans)-1]
		i--
	}
	for i+1 < len(b.spans) && b.spans[i].end >= b.spans[i+1].off {
		if b.spans[i+1].end > b.spans[i].end {
			b.spans[i].end = b.spans[i+1].end
		}
		copy(b.spans[i+1:], b.spans[i+2:])
		b.spans = b.spans[:len(b.spans)-1]
	}
}

// covers reports whether [0, total) is fully received.
func (b *fragBuf) covers(total int) bool {
	return len(b.spans) == 1 && b.spans[0].off == 0 && b.spans[0].end >= total
}
