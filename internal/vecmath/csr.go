package vecmath

import (
	"fmt"
	"math"

	"p2prank/internal/par"
)

// CSR is a compressed-sparse-row matrix stored length-major: the rows
// are laid out in ascending (entry count, row index) order. perm[k] is
// the row held by storage slot k, and that row's entries occupy
// cols[rowPtr[k]:rowPtr[k+1]] with values vals[rowPtr[k]:rowPtr[k+1]],
// columns ascending. The count a row is ordered by is the one its
// builder declared; merging duplicate (row, col) entries afterwards
// shrinks a row where it lies, so the order is by stored length
// wherever the input repeated no (row, col) and by length before the
// merge where it did — either way a pure function of the entries.
//
// The PageRank solvers use CSR for the (transposed) transition matrix A
// of §3: A[u][v] = α/d(u) when u links to v. Storing the transpose (rows
// indexed by destination) makes the Jacobi step R ← AR + f a clean
// row-gather, and in-degrees are power-law: swept in index order the
// gather's exit branch mispredicts about once a row, swept in storage
// order it takes the same trip count thousands of rows running. Every
// kernel therefore walks the slots and writes dst[perm[k]]; the leading
// run of empty rows costs a copy, not a dot product. Each row's sum is
// still 0 + v₀x₀ + v₁x₁ + … left to right, so no result bit depends on
// where a row is stored.
//
// Parallelism: construction precomputes NNZ-balanced shard boundaries
// over the slots (a pure function of the matrix, never of GOMAXPROCS).
// Matrix-vector products run one shard per worker writing disjoint
// destination rows, and norm reductions combine per-shard partials in
// shard order, so every kernel is bit-identical to its serial execution
// at any worker count — see internal/par and DESIGN.md §8.
type CSR struct {
	NumRows int
	NumCols int

	perm   []int32
	rowPtr []int64
	cols   []int32
	vals   []float64
	// empty is the length of the leading run of slots with no entries.
	empty int
	// shardPtr are the precomputed slot-shard boundaries
	// (shardPtr[0] = 0 … shardPtr[len-1] = NumRows).
	shardPtr []int32
}

// maxCSRShards bounds the shard count, and with it any per-shard
// partials array a reduction keeps on its stack.
const maxCSRShards = 64

// defaultCSRShards is the shard count boundaries are computed for.
// It is deliberately independent of GOMAXPROCS: more shards than
// workers just means a little work-stealing slack, while tying it to
// the core count would make the boundary set machine-dependent.
var defaultCSRShards = 16

// SetDefaultCSRShards overrides the shard count used by subsequently
// built matrices and returns the previous value. Kernels are
// bit-identical at any shard count (products write disjoint rows; the
// only CSR reduction is an exact max), so this is a testing knob for
// the determinism suite, not a tuning surface. Values are clamped to
// [1, maxCSRShards]. Not safe to call concurrently with matrix
// construction.
func SetDefaultCSRShards(n int) int {
	prev := defaultCSRShards
	defaultCSRShards = min(max(n, 1), maxCSRShards)
	return prev
}

// csrParMinNNZ is the matrix size below which kernels stay on the
// calling goroutine: the simulator's per-group systems are a few
// hundred entries, where pool dispatch costs more than the row loop.
const csrParMinNNZ = 1 << 14

// Fill is a CSR under construction by a producer that knows how many
// entries each row will receive and can emit every row's entries in
// ascending column order — the transition builds scatter over a graph's
// out-links source-ascending, which is exactly that. The counts fix the
// storage order before the first entry arrives, so each entry is
// written once, straight to its final place: no transient entry slice
// (24 bytes per link), no row-major copy to permute.
type Fill struct {
	m    *CSR
	next []int64 // next[i] is where row i's next entry goes
}

// NewFill lays out a rows×cols matrix whose row i will receive exactly
// counts[i] entries: one counting sort of the rows by count (ascending
// index within a count, as the scatter walks the rows in order), one
// prefix sum in that order. counts is taken over as the fill cursor.
func NewFill(rows, cols int, counts []int64) (Fill, error) {
	if rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return Fill{}, fmt.Errorf("vecmath: dimension %dx%d out of range", rows, cols)
	}
	if len(counts) != rows {
		return Fill{}, fmt.Errorf("vecmath: %d row counts for %d rows", len(counts), rows)
	}
	longest := int64(0)
	for i, c := range counts {
		if c < 0 {
			return Fill{}, fmt.Errorf("vecmath: row %d has negative count %d", i, c)
		}
		longest = max(longest, c)
	}
	first := make([]int32, longest+2) // first[c]: the first slot of the rows with count c
	for _, c := range counts {
		first[c+1]++
	}
	for c := range longest {
		first[c+1] += first[c]
	}
	m := &CSR{NumRows: rows, NumCols: cols, perm: make([]int32, rows), rowPtr: make([]int64, rows+1)}
	for i, c := range counts {
		m.perm[first[c]] = int32(i)
		first[c]++
	}
	for k, p := range m.perm {
		m.rowPtr[k+1] = m.rowPtr[k] + counts[p]
		counts[p] = m.rowPtr[k]
	}
	m.cols = make([]int32, m.rowPtr[rows])
	m.vals = make([]float64, m.rowPtr[rows])
	return Fill{m: m, next: counts}, nil
}

// Put appends one entry to row. It checks nothing — CSR does, once,
// over the result: a row given more entries than it declared spills
// into its neighbour and is caught there, and only a row index or a
// total beyond what was declared panics, as any slice index does.
func (f Fill) Put(row, col int32, val float64) {
	pos := f.next[row]
	f.next[row] = pos + 1
	f.m.cols[pos] = col
	f.m.vals[pos] = val
}

// CSR finishes the matrix. It returns an error unless every row
// received the entries it declared, in range and in non-decreasing
// column order; adjacent equal columns are summed in arrival order and
// the arrays compacted in place — the matrix an unordered-entry build
// produces once its entries are stably sorted by column. The Fill must
// not be used afterwards.
func (f Fill) CSR() (*CSR, error) {
	m := f.m
	w := int64(0)
	for k, p := range m.perm {
		lo, hi := m.rowPtr[k], m.rowPtr[k+1]
		if f.next[p] != hi {
			return nil, fmt.Errorf("vecmath: row %d received %d entries, declared %d", p, f.next[p]-lo, hi-lo)
		}
		m.rowPtr[k] = w
		prev := int32(-1)
		for j := lo; j < hi; {
			c := m.cols[j]
			if c < 0 || int(c) >= m.NumCols {
				return nil, fmt.Errorf("vecmath: entry (%d,%d) out of bounds for %dx%d matrix", p, c, m.NumRows, m.NumCols)
			}
			if c < prev {
				return nil, fmt.Errorf("vecmath: row %d columns not sorted (%d after %d)", p, c, prev)
			}
			prev = c
			v := m.vals[j]
			for j++; j < hi && m.cols[j] == c; j++ {
				v += m.vals[j]
			}
			m.cols[w], m.vals[w] = c, v
			w++
		}
	}
	m.rowPtr[m.NumRows] = w
	m.cols, m.vals = m.cols[:w], m.vals[:w]
	for m.empty < m.NumRows && m.rowPtr[m.empty+1] == 0 {
		m.empty++
	}
	// rowPtr is already the NNZ prefix-weight array SplitPrefix wants.
	m.shardPtr = par.SplitPrefix(m.rowPtr, defaultCSRShards)
	return m, nil
}

// oneShard reports whether kernels should stay on the calling
// goroutine: too little work to pay for pool dispatch. The simulator's
// per-group systems are a few hundred entries, squarely in this regime
// — and the serial path allocates nothing, not even a closure.
func (m *CSR) oneShard() bool { return len(m.vals) < csrParMinNNZ }

// emptyEnd clips the leading run of empty slots to the span [lo, hi).
func (m *CSR) emptyEnd(lo, hi int) int { return min(max(lo, m.empty), hi) }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// MulVec computes dst = M·x. dst and x must not alias. It panics on
// dimension mismatch.
//
//p2plint:hotpath -- per-iteration rank kernel, steady state must not allocate
func (m *CSR) MulVec(dst, x Vec) {
	mustSameLen(len(dst), m.NumRows)
	mustSameLen(len(x), m.NumCols)
	if m.oneShard() {
		m.mulVecRange(dst, x, 0, m.NumRows)
		return
	}
	sp := m.shardPtr
	//p2plint:allow hotalloc -- par fan-out above csrParMinNNZ; one closure amortized over ≥16K entries
	par.Default().Run(len(sp)-1, func(s int) { m.mulVecRange(dst, x, int(sp[s]), int(sp[s+1])) })
}

func (m *CSR) mulVecRange(dst, x Vec, lo, hi int) {
	z := m.emptyEnd(lo, hi)
	for _, p := range m.perm[lo:z] {
		dst[p] = 0
	}
	for k := z; k < hi; k++ {
		dst[m.perm[k]] = m.slotDot(k, x)
	}
}

// StepInto computes dst = M·x + e (+ xa when non-nil) in one fused
// pass — the full Jacobi step R ← AR + βE + X of Algorithm 2 without
// the two extra memory sweeps of MulVec-then-Add-then-Add. The
// floating-point association matches the unfused form exactly:
// (rowdot + e[i]) + xa[i], an empty row's dot being the +0 that adds
// nothing.
//
//p2plint:hotpath -- fused Jacobi step, the innermost loop of Algorithm 2
func (m *CSR) StepInto(dst, x, e, xa Vec) {
	mustSameLen(len(dst), m.NumRows)
	mustSameLen(len(x), m.NumCols)
	mustSameLen(len(e), m.NumRows)
	if xa != nil {
		mustSameLen(len(xa), m.NumRows)
	}
	if m.oneShard() {
		m.stepRange(dst, x, e, xa, 0, m.NumRows)
		return
	}
	sp := m.shardPtr
	//p2plint:allow hotalloc -- par fan-out above csrParMinNNZ; one closure amortized over ≥16K entries
	par.Default().Run(len(sp)-1, func(s int) { m.stepRange(dst, x, e, xa, int(sp[s]), int(sp[s+1])) })
}

func (m *CSR) stepRange(dst, x, e, xa Vec, lo, hi int) {
	z := m.emptyEnd(lo, hi)
	if xa == nil {
		for _, p := range m.perm[lo:z] {
			dst[p] = e[p]
		}
		for k := z; k < hi; k++ {
			p := m.perm[k]
			dst[p] = m.slotDot(k, x) + e[p]
		}
		return
	}
	for _, p := range m.perm[lo:z] {
		dst[p] = e[p] + xa[p]
	}
	for k := z; k < hi; k++ {
		p := m.perm[k]
		dst[p] = m.slotDot(k, x) + e[p] + xa[p]
	}
}

// StepDelta performs the Jacobi step dst = M·x + e (+ xa) and returns
// ‖dst − x‖₁ — the iterate-and-measure body of GroupPageRank
// (Algorithm 2). M must be square with x playing both the multiplicand
// and the previous iterate.
//
// The step writes rows in storage order, so the delta is taken
// afterwards, by Diff1 in index order: one ascending sweep for
// n ≤ vecBlock, the blocked reduction that is a pure function of n
// above it. Either way the result is independent of the layout, of
// sharding and of worker count.
//
//p2plint:hotpath -- iterate-and-measure body of GroupPageRank, runs every round
func (m *CSR) StepDelta(dst, x, e, xa Vec) float64 {
	mustSameLen(m.NumRows, m.NumCols)
	m.StepInto(dst, x, e, xa)
	return Diff1(dst, x)
}

// slotDot is the row-gather kernel shared by every product: the dot of
// the row in slot k with x.
func (m *CSR) slotDot(k int, x Vec) float64 {
	lo, hi := m.rowPtr[k], m.rowPtr[k+1]
	cols := m.cols[lo:hi]
	// Reslicing vals to cols' length lets the compiler drop the bounds
	// check on vals[j] inside the hot loop.
	vals := m.vals[lo:hi][:len(cols)]
	s := 0.0
	for j, c := range cols {
		s += vals[j] * x[c]
	}
	return s
}

// Transpose returns Mᵀ.
func (m *CSR) Transpose() *CSR {
	counts := make([]int64, m.NumCols)
	for _, c := range m.cols {
		counts[c]++
	}
	// Mᵀ's rows get their columns sorted by visiting M's rows in index
	// order, which is through the inverse of perm.
	slot := make([]int32, m.NumRows)
	for k, p := range m.perm {
		slot[p] = int32(k)
	}
	f, err := NewFill(m.NumCols, m.NumRows, counts)
	if err != nil {
		panic(err) // unreachable: the dimensions and counts are M's own
	}
	for i, k := range slot {
		for j := m.rowPtr[k]; j < m.rowPtr[k+1]; j++ {
			f.Put(m.cols[j], int32(i), m.vals[j])
		}
	}
	t, err := f.CSR()
	if err != nil {
		panic(err) // unreachable: every row filled, in column order
	}
	return t
}
