package vecmath

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"p2prank/internal/xrand"
)

// rowMajor is the layout the kernels are specified against: the entries
// sorted by (row, col), duplicates summed in arrival order.
func rowMajor(entries []entry) []entry {
	ref := append([]entry(nil), entries...)
	sort.SliceStable(ref, func(i, j int) bool {
		if ref[i].Row != ref[j].Row {
			return ref[i].Row < ref[j].Row
		}
		return ref[i].Col < ref[j].Col
	})
	var merged []entry
	for _, e := range ref {
		if n := len(merged); n > 0 && merged[n-1].Row == e.Row && merged[n-1].Col == e.Col {
			merged[n-1].Val += e.Val
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// refKernels is the row-major reference every kernel must match bit for
// bit: rows in index order, each dot 0 + v₀x₀ + v₁x₁ + … left to right,
// the step (dot + e) + xa, the delta in fixed vecBlock blocks combined
// in block order, the norm a max of row sums of |v|.
func refKernels(n int, merged []entry, x, e, xa Vec) (mul, step Vec, delta, normInf float64) {
	mul, step = NewVec(n), NewVec(n)
	abs := NewVec(n)
	for _, en := range merged {
		mul[en.Row] += en.Val * x[en.Col]
		abs[en.Row] += math.Abs(en.Val)
	}
	block := 0.0
	for i := range step {
		step[i] = mul[i] + e[i]
		if xa != nil {
			step[i] += xa[i]
		}
		block += math.Abs(step[i] - x[i])
		if (i+1)%vecBlock == 0 || i == n-1 {
			delta, block = delta+block, 0
		}
		normInf = max(normInf, abs[i])
	}
	return mul, step, delta, normInf
}

// layoutCase draws a seeded n×n entry list with every row-length regime
// the layout has to order: empty rows throughout, one row holding half
// the entries, and duplicate (row, col) pairs.
func layoutCase(n, nnz int, seed uint64) []entry {
	rng := xrand.New(seed)
	entries := make([]entry, 0, nnz)
	heavy := rng.Intn(n)
	for len(entries) < nnz {
		e := entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Float64()}
		switch {
		case len(entries)%2 == 0:
			e.Row = heavy
		case e.Row%3 == 0:
			continue // a third of the rows stay empty
		case len(entries)%7 == 0:
			e = entries[rng.Intn(len(entries))] // a duplicate
		}
		entries = append(entries, e)
	}
	return entries
}

// checkLayout asserts the storage invariants: perm a permutation in
// ascending (declared count, index) order — which merged duplicates can
// only shorten in place — columns strictly ascending within a row, the
// empty run counted, the shards covering every slot.
func checkLayout(t *testing.T, m *CSR, declared, merged []entry) {
	t.Helper()
	if len(m.perm) != m.NumRows || len(m.rowPtr) != m.NumRows+1 || m.NNZ() != len(merged) {
		t.Fatalf("layout sizes: perm %d rowPtr %d nnz %d for %d rows, %d entries",
			len(m.perm), len(m.rowPtr), m.NNZ(), m.NumRows, len(merged))
	}
	counts := make([]int, m.NumRows)
	for _, e := range declared {
		counts[e.Row]++
	}
	seen := make([]bool, m.NumRows)
	empty := 0
	for k, p := range m.perm {
		if seen[p] {
			t.Fatalf("row %d stored twice", p)
		}
		seen[p] = true
		if k > 0 {
			q := m.perm[k-1]
			if counts[q] > counts[p] || counts[q] == counts[p] && q > p {
				t.Fatalf("slot %d holds row %d (%d entries) after row %d (%d)", k, p, counts[p], q, counts[q])
			}
		}
		cols := m.cols[m.rowPtr[k]:m.rowPtr[k+1]]
		if len(cols) == 0 && empty == k {
			empty++
		}
		for j := 1; j < len(cols); j++ {
			if cols[j] <= cols[j-1] {
				t.Fatalf("row %d columns not strictly ascending: %v", p, cols)
			}
		}
	}
	if m.empty != empty {
		t.Fatalf("empty run = %d, want %d", m.empty, empty)
	}
	if sp := m.shardPtr; sp[0] != 0 || int(sp[len(sp)-1]) != m.NumRows {
		t.Fatalf("shards %v do not cover %d slots", sp, m.NumRows)
	}
}

// TestLayoutKernelsMatchRowMajorReference is the layout's contract:
// storing rows length-major changes when a row is visited, never a bit
// of any output, at any shard count and any GOMAXPROCS.
func TestLayoutKernelsMatchRowMajorReference(t *testing.T) {
	cases := []struct {
		name   string
		n, nnz int
	}{
		{"all-empty", 40, 0},
		{"one-block", 300, 2500},
		{"block-edge", vecBlock, 9000},
		{"past-block-serial", vecBlock + 1, csrParMinNNZ - 500},
		{"pooled", 5000, 3 * csrParMinNNZ},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			entries := layoutCase(c.n, c.nnz, uint64(100+ci))
			merged := rowMajor(entries)
			x, e, xa := randVec(c.n, 1), randVec(c.n, 2), randVec(c.n, 3)
			mul, step, delta, normInf := refKernels(c.n, merged, x, e, xa)
			_, stepNil, deltaNil, _ := refKernels(c.n, merged, x, e, nil)
			base, err := newCSR(c.n, c.n, append([]entry(nil), entries...))
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4, 16} {
				prev := SetDefaultCSRShards(shards)
				m, err := newCSR(c.n, c.n, append([]entry(nil), entries...))
				SetDefaultCSRShards(prev)
				if err != nil {
					t.Fatal(err)
				}
				checkLayout(t, m, entries, merged)
				for _, procs := range []int{1, 2, 8} {
					prevProcs := runtime.GOMAXPROCS(procs)
					got := NewVec(c.n)
					m.MulVec(got, x)
					into, sd, sdNil := NewVec(c.n), NewVec(c.n), NewVec(c.n)
					m.StepInto(into, x, e, xa)
					d := m.StepDelta(sd, x, e, xa)
					dNil := m.StepDelta(sdNil, x, e, nil)
					norm := m.NormInf()
					runtime.GOMAXPROCS(prevProcs)

					for name, pair := range map[string][2]Vec{
						"MulVec": {got, mul}, "StepInto": {into, step},
						"StepDelta": {sd, step}, "StepDelta(nil xa)": {sdNil, stepNil},
					} {
						if !bitsEqual(pair[0], pair[1]) {
							t.Fatalf("shards=%d procs=%d: %s differs from the row-major reference", shards, procs, name)
						}
					}
					for name, pair := range map[string][2]float64{
						"delta": {d, delta}, "delta(nil xa)": {dNil, deltaNil}, "NormInf": {norm, normInf},
					} {
						if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
							t.Fatalf("shards=%d procs=%d: %s = %v, reference %v", shards, procs, name, pair[0], pair[1])
						}
					}
				}
			}

			// A direct Fill from the same entries, rows emitted column-
			// sorted, is the same matrix down to the last array.
			counts := make([]int64, c.n)
			for _, en := range entries {
				counts[en.Row]++
			}
			f, err := NewFill(c.n, c.n, counts)
			if err != nil {
				t.Fatal(err)
			}
			byCol := append([]entry(nil), entries...)
			sort.SliceStable(byCol, func(i, j int) bool { return byCol[i].Col < byCol[j].Col })
			for _, en := range byCol {
				f.Put(int32(en.Row), int32(en.Col), en.Val)
			}
			direct, err := f.CSR()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, base) {
				t.Fatal("Fill and newCSR built different matrices from the same entries")
			}

			// Transposing twice rebuilds the matrix from its merged
			// entries: the same rows, bit for bit.
			tt := base.Transpose().Transpose()
			checkLayout(t, tt, merged, merged)
			for i := 0; i < c.n; i++ {
				c1, v1 := rowOf(base, i)
				c2, v2 := rowOf(tt, i)
				if !reflect.DeepEqual(c1, c2) || !bitsEqual(v1, v2) {
					t.Fatalf("row %d changed across Transpose∘Transpose", i)
				}
			}
		})
	}
}

// TestFillRejectsBrokenContracts: a producer that miscounts, leaves a
// row's columns out of order or out of range gets an error, not a
// matrix.
func TestFillRejectsBrokenContracts(t *testing.T) {
	fill := func(counts []int64, puts ...[2]int32) error {
		f, err := NewFill(2, 2, counts)
		if err != nil {
			return err
		}
		for _, p := range puts {
			f.Put(p[0], p[1], 1)
		}
		_, err = f.CSR()
		return err
	}
	for name, err := range map[string]error{
		"short counts":   fill([]int64{1}),
		"negative count": fill([]int64{-1, 1}),
		"underfilled":    fill([]int64{2, 0}, [2]int32{0, 0}),
		"overfilled":     fill([]int64{1, 1}, [2]int32{0, 0}, [2]int32{0, 1}),
		"unsorted":       fill([]int64{2, 0}, [2]int32{0, 1}, [2]int32{0, 0}),
		"column range":   fill([]int64{1, 0}, [2]int32{0, 2}),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := fill([]int64{2, 1}, [2]int32{0, 0}, [2]int32{1, 1}, [2]int32{0, 0}); err != nil {
		t.Errorf("valid fill with a duplicate rejected: %v", err)
	}
}

// fuzzEntries decodes a byte string into a small square entry list:
// the first byte sizes the matrix, then (row, col, value) triples.
func fuzzEntries(data []byte) (n int, entries []entry) {
	if len(data) == 0 {
		return 1, nil
	}
	n = 1 + int(data[0])%96
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		entries = append(entries, entry{Row: int(b[0]) % n, Col: int(b[1]) % n, Val: float64(b[2]) / 64})
	}
	return n, entries
}

// FuzzCSRKernels drives the layout with arbitrary small matrices: the
// step and its delta must match the row-major reference bit for bit,
// with and without afferent rank.
func FuzzCSRKernels(f *testing.F) {
	f.Add([]byte{40})                                        // all rows empty
	f.Add([]byte{3, 0, 0, 64, 0, 0, 32, 1, 2, 8, 2, 1, 255}) // a duplicate pair
	heavy := []byte{63}
	for i := 0; i < 120; i++ { // every other entry lands in row 7
		heavy = append(heavy, byte(7+(i%2)*i), byte(i*5), byte(i+1))
	}
	f.Add(heavy)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, entries := fuzzEntries(data)
		merged := rowMajor(entries)
		m, err := newCSR(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, m, entries, merged)
		x, e, xa := randVec(n, 1), randVec(n, 2), randVec(n, 3)
		for _, xa := range []Vec{xa, nil} {
			_, step, delta, _ := refKernels(n, merged, x, e, xa)
			got := NewVec(n)
			if d := m.StepDelta(got, x, e, xa); !bitsEqual(got, step) || math.Float64bits(d) != math.Float64bits(delta) {
				t.Fatalf("StepDelta = %v, reference %v (vectors equal: %v)", d, delta, bitsEqual(got, step))
			}
		}
	})
}
