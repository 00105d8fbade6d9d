package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSeriesBasics(t *testing.T) {
	s := &Series{}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if !almost(s.Sum(), 10) || !almost(s.Mean(), 2.5) {
		t.Fatalf("sum=%v mean=%v", s.Sum(), s.Mean())
	}
}

func TestEmptySeriesSafe(t *testing.T) {
	s := &Series{}
	if s.Mean() != 0 || s.StdDev() != 0 || s.RSD() != 0 {
		t.Fatal("empty series returned non-zero stats")
	}
}

func TestStdDevKnown(t *testing.T) {
	s := &Series{}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !almost(s.StdDev(), 2) {
		t.Fatalf("stddev = %v, want 2", s.StdDev())
	}
	if !almost(s.RSD(), 40) {
		t.Fatalf("rsd = %v%%, want 40%%", s.RSD())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "name", "value")
	tb.AddRow("linux", "1.0")
	tb.AddRow("kite", "2.0")
	out := tb.String()
	for _, want := range []string{"== Fig X ==", "name", "linux", "kite", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tb.NumRows())
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "z", "dropped-extra")
	out := tb.String()
	if strings.Contains(out, "dropped-extra") {
		t.Fatal("extra cell was not dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Fatal("short row lost its cell")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345.6: "12346",
		42.42:   "42.4",
		1.2345:  "1.234",
		0.01234: "0.01234",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestWithinFactor(t *testing.T) {
	if !WithinFactor(10, 11, 1.2) {
		t.Fatal("10 vs 11 should be within factor 1.2")
	}
	if WithinFactor(10, 13, 1.2) {
		t.Fatal("10 vs 13 should not be within factor 1.2")
	}
	if WithinFactor(0, 5, 2) || WithinFactor(5, -1, 2) {
		t.Fatal("non-positive inputs must report false")
	}
	if !WithinFactor(7, 7, 1) {
		t.Fatal("equal values must be within factor 1")
	}
}

func TestRatioGuards(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Fatal("Ratio(4,2) != 2")
	}
	if Ratio(4, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
}

// Property: mean is always within [min, max], and RSD is non-negative.
func TestSeriesInvariants(t *testing.T) {
	prop := func(vals []float64) bool {
		s := &Series{}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			// Measurements are physical quantities; bound magnitudes so the
			// sum-of-squares in StdDev cannot overflow.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo > hi {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9 && s.RSD() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
