// Package stats provides the summary statistics and table rendering the
// experiment harness uses: means, percentiles, empirical CDFs, and
// aligned plain-text tables matching the paper's figures and tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-quantile (0 <= p <= 1) by linear
// interpolation on the sorted sample; NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Max returns the largest element, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// JainIndex is Jain's fairness index (Σx)² / (n·Σx²) over a sample of
// non-negative per-entity allocations: 1 when all entities receive the
// same amount, approaching 1/n as one entity takes everything. Empty or
// all-zero samples return NaN — there is no allocation to be fair about.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples <= X
}

// ECDF returns the empirical CDF of the sample as ascending step points,
// one per distinct value.
func ECDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var pts []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue // emit only the last occurrence of each value
		}
		pts = append(pts, CDFPoint{X: sorted[i], P: float64(i+1) / n})
	}
	return pts
}

// Table renders rows as an aligned plain-text table with a header rule.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)) + "\n")
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for tables: integers without decimals,
// otherwise one decimal place.
func F(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.1f", x)
}
