package main

import (
	"math"
	"math/bits"
	"sort"
)

// subBits fixes the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a recorded value is off by less than 1/2048 (0.05 %) —
// ten times finer than the 0.5 % bound the simulated latencies are held
// to. Values below 2^subBits are exact.
const subBits = 11

const (
	subCount  = 1 << subBits
	histSlots = (64 - subBits + 1) * subCount
)

// hist is a fixed-bucket log-linear histogram of non-negative int64
// samples (simulated nanoseconds). It never allocates after construction,
// so it may be fed from inside a timed loop.
type hist struct {
	counts []uint32
	n      uint64
}

func newHist() *hist { return &hist{counts: make([]uint32, histSlots)} }

// bucketOf maps v to its slot; lowOf is its inverse (the smallest value
// that lands in the slot).
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits // >= 0
	return (exp+1)<<subBits | int(uint64(v)>>uint(exp))&(subCount-1)
}

func lowOf(slot int) int64 {
	exp := slot>>subBits - 1
	if exp < 0 {
		return int64(slot)
	}
	return int64(subCount|slot&(subCount-1)) << uint(exp)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the q-quantile: the bucket holding rank q*n is found by
// nearest rank, and the value is interpolated linearly by rank across the
// bucket's width (exact below 2^subBits, where a bucket is one value wide).
// beyond is the number of samples in buckets past that one. Zero samples
// give (0, 0).
func (h *hist) quantile(q float64) (v float64, beyond uint64) {
	if h.n == 0 {
		return 0, 0
	}
	rank := math.Max(q*float64(h.n), 1)
	var seen uint64
	for slot, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+uint64(c)) >= rank {
			low, width := lowOf(slot), lowOf(slot+1)-lowOf(slot)
			frac := (rank - float64(seen)) / float64(c)
			return float64(low) + frac*float64(width-1), h.n - seen - uint64(c)
		}
		seen += uint64(c)
	}
	return 0, 0 // unreachable: seen reaches n >= rank
}

// fold mixes every non-empty bucket into a digest.
func (h *hist) fold(d *digest) {
	for slot, c := range h.counts {
		if c != 0 {
			d.u64(uint64(slot))
			d.u64(uint64(c))
		}
	}
}

// quartiles holds the median-and-spread summary every host-clock metric
// is reported with.
type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and the exclusive-method quartiles (the
// method of Python's statistics.quantiles(v, n=4), which the driver uses).
// With fewer than two samples the quartiles collapse onto the median.
func summarize(samples []float64) quartiles {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return quartiles{}
	case 1:
		return quartiles{Median: v[0], Q1: v[0], Q3: v[0], N: 1}
	}
	at := func(p float64) float64 { // p in (0,1): position p*(n+1), 1-based
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return v[0]
		}
		if j >= n {
			return v[n-1]
		}
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), N: n}
}

// spread is the interquartile range as a share of the median.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / math.Abs(q.Median)
}

// digest is FNV-1a over 64-bit words: the one hash the harness uses for
// payload integrity and for the "did any simulated statistic move" check.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d *digest) u64(v uint64) { *d = (*d ^ digest(v)) * fnvPrime }

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.u64(uint64(s[i]))
	}
}
