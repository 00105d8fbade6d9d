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
	if s.N() != 4 || !almost(s.Sum(), 10) || !almost(s.Mean(), 2.5) {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if !almost(s.Min(), 1) || !almost(s.Max(), 4) {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
}

func TestEmptySeriesSafe(t *testing.T) {
	s := &Series{}
	if s.Mean() != 0 || s.StdDev() != 0 || s.RSD() != 0 || s.Percentile(50) != 0 {
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

func TestPercentiles(t *testing.T) {
	s := &Series{}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); !almost(got, 50) {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := s.Percentile(99); !almost(got, 99) {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := s.Percentile(0); !almost(got, 1) {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(100); !almost(got, 100) {
		t.Fatalf("p100 = %v, want 100", got)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	s := &Series{}
	for _, v := range []float64{9, 1, 5, 3, 7} {
		s.Add(v)
	}
	if got := s.Median(); !almost(got, 5) {
		t.Fatalf("median = %v, want 5", got)
	}
	// Adding after a sorted read must still work.
	s.Add(0)
	if got := s.Min(); !almost(got, 0) {
		t.Fatalf("min after re-add = %v, want 0", got)
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

func TestAddRowfFormatsFloats(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRowf(1234.5678)
	if !strings.Contains(tb.String(), "1235") {
		t.Fatalf("large float not rounded: %s", tb.String())
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
		for _, v := range vals {
			// Measurements are physical quantities; bound magnitudes so the
			// sum-of-squares in StdDev cannot overflow.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9 && s.RSD() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
