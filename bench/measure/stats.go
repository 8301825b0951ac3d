// Package measure holds the benchmark harness's own instruments: order
// statistics, the open-loop pacer, the span recorder and the process
// probes. Nothing here knows about a workload.
package measure

import (
	"math"
	"sort"
)

// Median returns the middle of vals (mean of the two middles for an
// even count). It sorts a copy; vals must be non-empty.
func Median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the default "exclusive"
// method), so a spread computed here is the one the benchmark driver
// computes. It needs at least two values.
func Quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	const n = 4
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance as a share of the median — the
// steadiness figure the driver holds each end-to-end metric to.
func Spread(vals []float64) float64 {
	q1, q2, q3 := Quartiles(vals)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// QuietSum is the quiet-host estimate of a timed phase. rows are the
// phase's repetitions; column j of every row times the same fixed
// slice of its work. The estimate is the sum over slices of each
// slice's fastest repetition. On a shared host the interference only
// ever adds time, and it does so at every scale from milliseconds to
// minutes, so a median over repetitions follows the host's mood (its
// run-to-run spread does not shrink with more repetitions) while the
// fastest of a few dozen repetitions of a slice a few milliseconds
// long converges on what the code itself costs. It returns false when
// there is no row or the rows are not all the same non-zero length.
func QuietSum(rows [][]float64) (float64, bool) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return 0, false
	}
	var sum float64
	for j := range rows[0] {
		best := math.Inf(1)
		for _, row := range rows {
			if len(row) != len(rows[0]) {
				return 0, false
			}
			best = math.Min(best, row[j])
		}
		sum += best
	}
	return sum, true
}
