// Package metrics collects measurement series for experiments and renders
// the fixed-width tables the benchmark harness prints. It implements the
// statistics the paper reports: means, relative standard deviation
// (Table 4), and latency percentiles.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is an append-only collection of float64 samples; the zero value
// is empty and ready to use.
type Series struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (s *Series) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
}

// N returns the number of samples.
func (s *Series) N() int { return len(s.samples) }

// Sum returns the sum of all samples.
func (s *Series) Sum() float64 {
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.samples))
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var sq float64
	for _, v := range s.samples {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(n))
}

// RSD returns the relative standard deviation in percent (Table 4's
// metric): 100 * stddev / mean. Zero-mean series report 0.
func (s *Series) RSD() float64 {
	mean := s.Mean()
	if mean == 0 {
		return 0
	}
	return 100 * s.StdDev() / math.Abs(mean)
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted samples.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.samples[rank-1]
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }

// Table renders experiment rows as a fixed-width text table, matching the
// output style of cmd/kitebench.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf formats each cell with fmt.Sprint and appends the row.
func (t *Table) AddRowf(cells ...any) {
	str := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			str[i] = FormatFloat(v)
		default:
			str[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(str...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders v with precision appropriate to its magnitude, so
// tables stay readable across Gbps and sub-millisecond values.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// Ratio returns a/b guarding against division by zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WithinFactor reports whether a and b agree within factor f (f >= 1):
// max(a,b)/min(a,b) <= f. Non-positive inputs report false.
func WithinFactor(a, b, f float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	return hi/lo <= f
}
