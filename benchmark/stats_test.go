package main

import (
	"math"
	"testing"
)

func TestHistBuckets(t *testing.T) {
	for _, v := range []int64{0, 1, 2047, 2048, 2049, 4095, 4096, 68352, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		slot := bucketOf(v)
		if lo := lowOf(slot); lo > v {
			t.Errorf("value %d lands in slot %d whose low edge %d is above it", v, slot, lo)
		}
		if v < math.MaxInt64>>1 {
			if next := lowOf(slot + 1); next <= v {
				t.Errorf("value %d lands in slot %d but the next slot starts at %d", v, slot, next)
			}
			// Resolution: a bucket is at most 1/2048 of its low edge wide.
			if width := lowOf(slot+1) - lowOf(slot); width > 1 && float64(width) > float64(lowOf(slot))/subCount+1 {
				t.Errorf("slot %d is %d wide at %d: coarser than 1/%d", slot, width, lowOf(slot), subCount)
			}
		}
	}
	if bucketOf(-5) != 0 {
		t.Error("negative samples must clamp to slot 0")
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	if v, beyond := h.quantile(0.5); v != 0 || beyond != 0 {
		t.Fatalf("empty histogram quantile = %v, %d", v, beyond)
	}
	for v := int64(1); v <= 1000; v++ { // exact range: one value per bucket
		h.add(v)
	}
	if v, _ := h.quantile(0.50); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
	v, beyond := h.quantile(0.99)
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	// Interpolation inside a wide bucket: 100 samples in [1<<20, 1<<20+511].
	h.reset()
	for i := 0; i < 100; i++ {
		h.add(1 << 20)
	}
	got, _ := h.quantile(0.5)
	if want := float64(1<<20) + 0.5*511; got != want {
		t.Errorf("interpolated p50 = %v, want %v", got, want)
	}
	h.reset()
	if h.n != 0 {
		t.Error("reset left samples behind")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 || q.N != 10 {
		t.Errorf("quartiles of 1..10 = %+v", q)
	}
	if got, want := q.spread(), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := summarize([]float64{4, 1, 2}); q.Q1 != 1 || q.Median != 2 || q.Q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %+v", q)
	}
	if q := summarize([]float64{7}); q.Q1 != 7 || q.Median != 7 || q.Q3 != 7 {
		t.Errorf("one sample = %+v", q)
	}
	if q := summarize(nil); q.N != 0 || q.spread() != 0 {
		t.Errorf("no samples = %+v", q)
	}
}

func TestDigest(t *testing.T) {
	sum := func(vals ...uint64) digest {
		d := fnvOffset
		for _, v := range vals {
			d.u64(v)
		}
		return d
	}
	if sum(1, 2, 3) != sum(1, 2, 3) {
		t.Error("digest is not a function of its input")
	}
	if sum(1, 2, 3) == sum(1, 3, 2) || sum(1, 2, 3) == sum(1, 2, 4) || sum(1, 2) == sum(1, 2, 0) {
		t.Error("digest ignores order, a value, or length")
	}
	// A histogram folds to the same digest exactly when its buckets agree.
	a, b := newHist(), newHist()
	for _, v := range []int64{5, 70000, 70001, 1 << 30} {
		a.add(v)
		b.add(v)
	}
	da, db := fnvOffset, fnvOffset
	a.fold(&da)
	b.fold(&db)
	if da != db {
		t.Error("equal histograms fold differently")
	}
	b.add(5)
	db = fnvOffset
	b.fold(&db)
	if da == db {
		t.Error("one more sample did not move the digest")
	}
	if hashBytes([]byte("abcdefgh1")) == hashBytes([]byte("abcdefgh2")) {
		t.Error("hashBytes ignores the tail")
	}
}
