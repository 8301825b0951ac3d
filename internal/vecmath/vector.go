// Package vecmath provides the dense-vector and sparse-matrix primitives
// used by the PageRank solvers: L1/L∞ norms, element-wise operations, and
// compressed sparse row (CSR) matrices with matrix-free products.
//
// The package is deliberately small and allocation-conscious: the solvers
// in internal/pagerank and internal/dprcore iterate over million-edge
// graphs, so every operation that can write into a caller-provided
// destination does, and the hot small-vector paths allocate nothing.
//
// Large operations run on the internal/par worker pool. Determinism is
// structural, not accidental: sum reductions always accumulate in fixed
// blocks of vecBlock elements and combine the partials in block order,
// so the floating-point association — and therefore every result bit —
// is a function of the input alone, never of GOMAXPROCS or whether the
// parallel path was taken. Element-wise ops and max reductions are
// exact under any split.
package vecmath

import (
	"fmt"
	"math"

	"p2prank/internal/par"
)

const (
	// vecBlock is the fixed reduction granularity. Changing it changes
	// low result bits, so it is a constant, not a knob. A vector that
	// fits one block reduces with a plain serial sweep, which is the
	// same association a one-block reduction produces.
	vecBlock = 2048
	// parMinVec is the vector length below which operations stay on the
	// calling goroutine; pool dispatch costs more than the loop there.
	parMinVec = 4 * vecBlock
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Const returns a vector of length n with every element set to v.
func Const(n int, v float64) Vec {
	x := make(Vec, n)
	for i := range x {
		x[i] = v
	}
	return x
}

// Clone returns a copy of x.
func (x Vec) Clone() Vec {
	y := make(Vec, len(x))
	copy(y, x)
	return y
}

// blockSpan returns the b-th fixed vecBlock-sized block of [0, n).
func blockSpan(b, n int) (lo, hi int) {
	lo = b * vecBlock
	return lo, min(lo+vecBlock, n)
}

// blockCombine reduces [0, n) with partial evaluated on each block (see
// blockSpan) and the partials added in block order. Callers must have
// handled n ≤ vecBlock themselves (the closure-free fast path).
func blockCombine(n int, partial func(b int) float64) float64 {
	nb := par.Blocks(n, vecBlock)
	if n >= parMinVec {
		return par.Default().Sum(nb, partial)
	}
	s := 0.0
	for b := range nb {
		s += partial(b)
	}
	return s
}

// parSpans applies f over [0, n) in vecBlock-sized spans on the pool.
// Callers must have handled the small-n serial path themselves. f
// writes only inside its span, so results match the serial sweep
// bit for bit.
func parSpans(n int, f func(lo, hi int)) {
	par.Default().Run(par.Blocks(n, vecBlock), func(b int) { f(blockSpan(b, n)) })
}

// Fill sets every element of x to v.
func (x Vec) Fill(v float64) {
	for i := range x {
		x[i] = v
	}
}

// Zero sets every element of x to 0.
func (x Vec) Zero() { x.Fill(0) }

func sumRange(x Vec, lo, hi int) float64 {
	s := 0.0
	for _, v := range x[lo:hi] {
		s += v
	}
	return s
}

// Sum returns the sum of the elements of x, accumulated in fixed
// blocks (see the package comment on determinism).
func (x Vec) Sum() float64 {
	if len(x) <= vecBlock {
		return sumRange(x, 0, len(x))
	}
	return blockCombine(len(x), func(b int) float64 {
		lo, hi := blockSpan(b, len(x))
		return sumRange(x, lo, hi)
	})
}

// Mean returns the arithmetic mean of x, or 0 for an empty vector.
func (x Vec) Mean() float64 {
	if len(x) == 0 {
		return 0
	}
	return x.Sum() / float64(len(x))
}

func norm1Range(x Vec, lo, hi int) float64 {
	s := 0.0
	for _, v := range x[lo:hi] {
		s += math.Abs(v)
	}
	return s
}

// Norm1 returns the L1 norm ‖x‖₁.
func (x Vec) Norm1() float64 {
	if len(x) <= vecBlock {
		return norm1Range(x, 0, len(x))
	}
	return blockCombine(len(x), func(b int) float64 {
		lo, hi := blockSpan(b, len(x))
		return norm1Range(x, lo, hi)
	})
}

// NormInf returns the L∞ norm ‖x‖∞.
func (x Vec) NormInf() float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// AddConst adds c to every element of x in place.
func (x Vec) AddConst(c float64) {
	if len(x) < parMinVec {
		for i := range x {
			x[i] += c
		}
		return
	}
	parSpans(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += c
		}
	})
}

// Add adds y to x element-wise in place. It panics on length mismatch.
func (x Vec) Add(y Vec) {
	mustSameLen(len(x), len(y))
	if len(x) < parMinVec {
		for i := range x {
			x[i] += y[i]
		}
		return
	}
	parSpans(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += y[i]
		}
	})
}

// Axpy computes x += a·y in place. It panics on length mismatch.
func (x Vec) Axpy(a float64, y Vec) {
	mustSameLen(len(x), len(y))
	if len(x) < parMinVec {
		for i := range x {
			x[i] += a * y[i]
		}
		return
	}
	parSpans(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += a * y[i]
		}
	})
}

func diff1Range(x, y Vec, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += math.Abs(x[i] - y[i])
	}
	return s
}

// Diff1 returns ‖x−y‖₁. It panics on length mismatch.
func Diff1(x, y Vec) float64 {
	mustSameLen(len(x), len(y))
	if len(x) <= vecBlock {
		return diff1Range(x, y, 0, len(x))
	}
	//p2plint:allow hotalloc -- range adapter closure, one per >vecBlock reduction
	return blockCombine(len(x), func(b int) float64 {
		lo, hi := blockSpan(b, len(x))
		return diff1Range(x, y, lo, hi)
	})
}

// RelErr1 returns ‖x−y‖₁ / ‖y‖₁, the relative-error metric the paper uses
// to compare distributed ranks against the centralized fixed point. If
// ‖y‖₁ is zero it returns ‖x‖₁ (absolute error against the zero vector).
func RelErr1(x, y Vec) float64 {
	d := Diff1(x, y)
	n := y.Norm1()
	//p2plint:allow floateq -- exact-zero guard: Norm1 is 0 only for the all-zero vector, and any other divisor is fine
	if n == 0 {
		return x.Norm1()
	}
	return d / n
}

// Dominates reports whether x ≥ y element-wise, with slack tol ≥ 0 to
// absorb floating-point noise (x[i] ≥ y[i] − tol for all i). The paper's
// Theorem 4.1 states DPR1 rank sequences are monotone in this order.
func Dominates(x, y Vec, tol float64) bool {
	mustSameLen(len(x), len(y))
	for i := range x {
		if x[i] < y[i]-tol {
			return false
		}
	}
	return true
}

// Min returns the smallest element of x, or +Inf for an empty vector.
func (x Vec) Min() float64 {
	m := math.Inf(1)
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element of x, or -Inf for an empty vector.
func (x Vec) Max() float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// TopPages returns the indices of the n highest-ranked pages, ties
// broken toward the smaller index.
func TopPages(ranks Vec, n int) []int {
	if n > len(ranks) {
		n = len(ranks)
	}
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: n is typically tiny (top-10 listings).
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if ranks[idx[j]] > ranks[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:n]
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vecmath: length mismatch %d != %d", a, b))
	}
}
