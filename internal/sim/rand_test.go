package sim

import (
	"math"
	"testing"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed generator appears stuck")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestIntnInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64MeanRoughlyHalf(t *testing.T) {
	r := NewRand(11)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(13)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(19)
	base := Time(1000)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.1)
		if v < 900 || v > 1100 {
			t.Fatalf("Jitter(1000, 0.1) = %v out of [900,1100]", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("Jitter with factor 0 changed the value")
	}
}

func TestBytesFillsEverything(t *testing.T) {
	r := NewRand(23)
	for _, n := range []int{0, 1, 7, 8, 9, 4096} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 64 {
			zeros := 0
			for _, v := range b {
				if v == 0 {
					zeros++
				}
			}
			if zeros > n/8 {
				t.Fatalf("Bytes(%d) left %d zero bytes, looks unfilled", n, zeros)
			}
		}
	}
}

func TestTimeStringUnits(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		3 * Microsecond: "3.000us",
		2 * Millisecond: "2.000ms",
		7 * Second:      "7.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}
