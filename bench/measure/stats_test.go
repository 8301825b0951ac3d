package measure

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.11.
	cases := []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1 (5.5 / 5.5)", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestQuietSumTakesEachSlicesFastestRepetition(t *testing.T) {
	// Each repetition is disturbed in a different slice; the estimate
	// is the time of a repetition disturbed in none.
	rows := [][]float64{{1, 9, 3}, {7, 2, 3.5}, {1.5, 2.5, 8}}
	if got, ok := QuietSum(rows); !ok || got != 1+2+3 {
		t.Errorf("QuietSum = %v, %v, want 6, true", got, ok)
	}
	if _, ok := QuietSum(nil); ok {
		t.Error("QuietSum of no repetition reported a value")
	}
	if _, ok := QuietSum([][]float64{{1, 2}, {1}}); ok {
		t.Error("QuietSum accepted repetitions cut into different slices")
	}
}
