package vecmath

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"p2prank/internal/par"
	"p2prank/internal/xrand"
)

// entry is one (row, col, value) triple of an unordered-entry build.
type entry struct {
	Row, Col int
	Val      float64
}

// newCSR assembles a CSR matrix from unordered entries, the reference
// the tests hold the production Fill builders to. Duplicate (row, col)
// entries are summed. It returns an error if any index is out of
// bounds.
//
// Assembly is a stable counting sort by column, whose pass over the
// entries also counts the rows, then a Fill in that order: O(entries +
// rows + cols) with no comparator calls.
func newCSR(rows, cols int, entries []entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("vecmath: negative dimension %dx%d", rows, cols)
	}
	counts := make([]int64, rows)
	colPtr := make([]int64, cols+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("vecmath: entry (%d,%d) out of bounds for %dx%d matrix",
				e.Row, e.Col, rows, cols)
		}
		counts[e.Row]++
		colPtr[e.Col+1]++
	}
	f, err := NewFill(rows, cols, counts)
	if err != nil {
		return nil, err
	}
	for c := range cols {
		colPtr[c+1] += colPtr[c]
	}
	byCol := make([]entry, len(entries))
	for _, e := range entries {
		byCol[colPtr[e.Col]] = e
		colPtr[e.Col]++
	}
	for _, e := range byCol {
		f.Put(int32(e.Row), int32(e.Col), e.Val)
	}
	return f.CSR()
}

// NormInf returns ‖M‖∞ = max over rows of the L1 norm of the row. By
// Theorem 3.2 of the paper this bounds the spectral radius ρ(M), which is
// how Algorithm 2's convergence is certified (‖A‖∞ ≤ α < 1). It fans
// out over the matrix's shards like the products do; max is an exact
// reduction, so the per-shard combine cannot perturb bits.
func (m *CSR) NormInf() float64 {
	if m.oneShard() {
		return m.normInfRange(0, m.NumRows)
	}
	sp := m.shardPtr
	var partials [maxCSRShards]float64
	par.Default().Run(len(sp)-1, func(s int) {
		partials[s] = m.normInfRange(int(sp[s]), int(sp[s+1]))
	})
	return Vec(partials[:len(sp)-1]).Max()
}

func (m *CSR) normInfRange(lo, hi int) float64 {
	norm := 0.0
	for k := m.emptyEnd(lo, hi); k < hi; k++ {
		s := 0.0
		for _, v := range m.vals[m.rowPtr[k]:m.rowPtr[k+1]] {
			s += math.Abs(v)
		}
		norm = max(norm, s)
	}
	return norm
}

func mustCSR(t *testing.T, rows, cols int, entries []entry) *CSR {
	t.Helper()
	m, err := newCSR(rows, cols, entries)
	if err != nil {
		t.Fatalf("newCSR: %v", err)
	}
	return m
}

// rowOf returns the stored columns and values of row i, found the slow
// way: no kernel needs the inverse of perm, so the matrix keeps none.
func rowOf(m *CSR, i int) ([]int32, []float64) {
	for k, p := range m.perm {
		if int(p) == i {
			lo, hi := m.rowPtr[k], m.rowPtr[k+1]
			return m.cols[lo:hi], m.vals[lo:hi]
		}
	}
	return nil, nil
}

func TestCSRBasicMulVec(t *testing.T) {
	// [ 1 2 ]
	// [ 0 3 ]
	m := mustCSR(t, 2, 2, []entry{
		{0, 0, 1}, {0, 1, 2}, {1, 1, 3},
	})
	dst := NewVec(2)
	m.MulVec(dst, Vec{10, 100})
	if dst[0] != 210 || dst[1] != 300 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m := mustCSR(t, 1, 1, []entry{{0, 0, 1}, {0, 0, 2.5}})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	if _, vals := rowOf(m, 0); vals[0] != 3.5 {
		t.Fatalf("dup sum = %v", vals[0])
	}
}

func TestCSRUnsortedEntries(t *testing.T) {
	m := mustCSR(t, 3, 3, []entry{
		{2, 1, 5}, {0, 2, 1}, {1, 0, 2}, {0, 0, 3},
	})
	cols, vals := rowOf(m, 0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 3 || vals[1] != 1 {
		t.Fatalf("Row(0) = %v %v", cols, vals)
	}
	cols, _ = rowOf(m, 2)
	if len(cols) != 1 || cols[0] != 1 {
		t.Fatalf("Row(2) cols = %v", cols)
	}
}

func TestCSROutOfBounds(t *testing.T) {
	for _, e := range []entry{{-1, 0, 1}, {0, -1, 1}, {2, 0, 1}, {0, 2, 1}} {
		if _, err := newCSR(2, 2, []entry{e}); err == nil {
			t.Errorf("entry %+v accepted", e)
		}
	}
	if _, err := newCSR(-1, 2, nil); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestCSREmpty(t *testing.T) {
	m := mustCSR(t, 3, 3, nil)
	dst := Const(3, 9)
	m.MulVec(dst, Vec{1, 1, 1})
	if dst.Norm1() != 0 {
		t.Fatalf("empty matrix product = %v", dst)
	}
	if m.NormInf() != 0 {
		t.Fatalf("empty NormInf = %v", m.NormInf())
	}
}

func TestCSRNormInf(t *testing.T) {
	m := mustCSR(t, 2, 3, []entry{
		{0, 0, 1}, {0, 1, -2}, {1, 2, 2.5},
	})
	if got := m.NormInf(); got != 3 {
		t.Fatalf("NormInf = %v, want 3", got)
	}
}

func TestCSRTranspose(t *testing.T) {
	m := mustCSR(t, 2, 3, []entry{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	tr := m.Transpose()
	if tr.NumRows != 3 || tr.NumCols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.NumRows, tr.NumCols)
	}
	// (Mᵀ)ᵀ == M as dense matrices.
	x := Vec{1, 2}
	y1 := NewVec(3)
	// y1 = Mᵀ x
	tr.MulVec(y1, x)
	// Check against manual: Mᵀ = [[1,0],[0,3],[2,0]].
	want := Vec{1, 6, 2}
	if Diff1(y1, want) > 1e-12 {
		t.Fatalf("Mᵀx = %v, want %v", y1, want)
	}
}

// Property: transpose twice is identity on the matrix-vector product.
func TestCSRTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		rows, cols := 1+r.Intn(20), 1+r.Intn(20)
		nnz := r.Intn(60)
		entries := make([]entry, nnz)
		for i := range entries {
			entries[i] = entry{r.Intn(rows), r.Intn(cols), r.Float64()*4 - 2}
		}
		m, err := newCSR(rows, cols, entries)
		if err != nil {
			return false
		}
		tt := m.Transpose().Transpose()
		x := NewVec(cols)
		for i := range x {
			x[i] = r.Float64()
		}
		y1, y2 := NewVec(rows), NewVec(rows)
		m.MulVec(y1, x)
		tt.MulVec(y2, x)
		return Diff1(y1, y2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ‖Mx‖∞ ≤ ‖M‖∞ ‖x‖∞ (the bound behind Theorem 3.2's use).
func TestCSRNormInfBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(20)
		nnz := r.Intn(80)
		entries := make([]entry, nnz)
		for i := range entries {
			entries[i] = entry{r.Intn(n), r.Intn(n), r.Float64()*2 - 1}
		}
		m, err := newCSR(n, n, entries)
		if err != nil {
			return false
		}
		x := NewVec(n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		y := NewVec(n)
		m.MulVec(y, x)
		return y.NormInf() <= m.NormInf()*x.NormInf()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MulVec is linear: M(ax+by) == a·Mx + b·My.
func TestCSRLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(15)
		entries := make([]entry, r.Intn(50))
		for i := range entries {
			entries[i] = entry{r.Intn(n), r.Intn(n), r.Float64()}
		}
		m, err := newCSR(n, n, entries)
		if err != nil {
			return false
		}
		a, b := r.Float64()*3, r.Float64()*3
		x, y := NewVec(n), NewVec(n)
		for i := 0; i < n; i++ {
			x[i], y[i] = r.Float64(), r.Float64()
		}
		combo := NewVec(n)
		for i := range combo {
			combo[i] = a*x[i] + b*y[i]
		}
		left, mx, my := NewVec(n), NewVec(n), NewVec(n)
		m.MulVec(left, combo)
		m.MulVec(mx, x)
		m.MulVec(my, y)
		for i := range left {
			if math.Abs(left[i]-(a*mx[i]+b*my[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCSRMulVec(b *testing.B) {
	r := xrand.New(1)
	const n = 10000
	const deg = 15
	entries := make([]entry, 0, n*deg)
	for i := 0; i < n; i++ {
		for k := 0; k < deg; k++ {
			entries = append(entries, entry{i, r.Intn(n), r.Float64()})
		}
	}
	m, err := newCSR(n, n, entries)
	if err != nil {
		b.Fatal(err)
	}
	x, y := NewVec(n), NewVec(n)
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}
