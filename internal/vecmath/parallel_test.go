package vecmath

import (
	"math"
	"testing"

	"p2prank/internal/xrand"
)

// randCSR builds a reproducible sparse matrix with avgNNZ entries per
// row, including deliberate duplicates to exercise the merge sweep.
func randCSR(t *testing.T, rows, cols, avgNNZ int, seed uint64) *CSR {
	t.Helper()
	rng := xrand.New(seed)
	entries := make([]entry, 0, rows*avgNNZ)
	for i := 0; i < rows*avgNNZ; i++ {
		entries = append(entries, entry{
			Row: int(rng.Uint64() % uint64(rows)),
			Col: int(rng.Uint64() % uint64(cols)),
			Val: rng.Float64(),
		})
	}
	m, err := newCSR(rows, cols, entries)
	if err != nil {
		t.Fatalf("newCSR: %v", err)
	}
	return m
}

func randVec(n int, seed uint64) Vec {
	rng := xrand.New(seed)
	x := NewVec(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func bitsEqual(x, y Vec) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestNewCSRCountingSortMatchesComparatorSort pins the counting-sort
// assembly to the reference semantics: entries ordered by (row, col),
// duplicates summed.
func TestNewCSRCountingSortMatchesComparatorSort(t *testing.T) {
	rng := xrand.New(7)
	const rows, cols, nnz = 57, 43, 900
	entries := make([]entry, nnz)
	for i := range entries {
		entries[i] = entry{
			Row: int(rng.Uint64() % rows),
			Col: int(rng.Uint64() % cols),
			Val: rng.Float64(),
		}
	}
	m, err := newCSR(rows, cols, append([]entry(nil), entries...))
	if err != nil {
		t.Fatalf("newCSR: %v", err)
	}
	// Reference: comparator sort (stable, same duplicate order) + merge.
	merged := rowMajor(entries)
	if m.NNZ() != len(merged) {
		t.Fatalf("CSR has %d entries, reference %d", m.NNZ(), len(merged))
	}
	k := 0
	for i := 0; i < rows; i++ {
		cols, vals := rowOf(m, i)
		for p := range cols {
			e := merged[k]
			if e.Row != i || e.Col != int(cols[p]) ||
				math.Float64bits(e.Val) != math.Float64bits(vals[p]) {
				t.Fatalf("entry %d: CSR (%d,%d,%v) != reference (%d,%d,%v)",
					k, i, cols[p], vals[p], e.Row, e.Col, e.Val)
			}
			k++
		}
	}
}

// TestKernelsBitIdenticalAcrossShardCounts is the tentpole contract at
// the kernel layer: every CSR product and every norm produces the same
// bits no matter how the rows are sharded (and therefore no matter how
// many workers execute the shards).
func TestKernelsBitIdenticalAcrossShardCounts(t *testing.T) {
	const n = 9000 // above csrParMinNNZ and vecBlock so parallel paths engage
	x := randVec(n, 11)
	e := randVec(n, 12)
	xa := randVec(n, 13)
	type snap struct {
		mul, step    Vec
		stepDelta    float64
		normInf      float64
		norm1, diff1 float64
	}
	run := func(shards int) snap {
		prev := SetDefaultCSRShards(shards)
		defer SetDefaultCSRShards(prev)
		m := randCSR(t, n, n, 4, 3) // rebuilt so shardPtr reflects the knob
		var s snap
		s.mul = NewVec(n)
		m.MulVec(s.mul, x)
		s.step = NewVec(n)
		m.StepInto(s.step, x, e, xa)
		sd := NewVec(n)
		s.stepDelta = m.StepDelta(sd, x, e, xa)
		if !bitsEqual(sd, s.step) {
			t.Fatalf("shards=%d: StepDelta vector differs from StepInto", shards)
		}
		s.normInf = m.NormInf()
		s.norm1 = x.Norm1()
		s.diff1 = Diff1(s.step, x)
		return s
	}
	base := run(1)
	for _, shards := range []int{2, 4, 16, 64} {
		got := run(shards)
		if !bitsEqual(got.mul, base.mul) || !bitsEqual(got.step, base.step) {
			t.Fatalf("shards=%d: kernel output bits differ from serial", shards)
		}
		for name, pair := range map[string][2]float64{
			"StepDelta": {got.stepDelta, base.stepDelta},
			"NormInf":   {got.normInf, base.normInf},
			"Norm1":     {got.norm1, base.norm1},
			"Diff1":     {got.diff1, base.diff1},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("shards=%d: %s = %v differs from serial %v", shards, name, pair[0], pair[1])
			}
		}
	}
}

// TestKernelsMatchNaiveReference checks the sharded kernels against
// direct per-row loops, bit for bit: the shard decomposition never
// splits a row, so each dst element is one uninterrupted serial dot.
func TestKernelsMatchNaiveReference(t *testing.T) {
	const n = 9000
	m := randCSR(t, n, n, 4, 5)
	x := randVec(n, 21)
	e := randVec(n, 22)
	xa := randVec(n, 23)

	naive := NewVec(n)
	for i := 0; i < n; i++ {
		s := 0.0
		cols, vals := rowOf(m, i)
		for p, c := range cols {
			s += vals[p] * x[c]
		}
		naive[i] = s
	}
	got := NewVec(n)
	m.MulVec(got, x)
	if !bitsEqual(got, naive) {
		t.Fatal("MulVec differs from naive row loop")
	}

	// StepInto must associate exactly like the unfused sequence.
	unfused := NewVec(n)
	m.MulVec(unfused, x)
	unfused.Add(e)
	unfused.Add(xa)
	fused := NewVec(n)
	m.StepInto(fused, x, e, xa)
	if !bitsEqual(fused, unfused) {
		t.Fatal("StepInto differs from MulVec+Add+Add")
	}

	// Blocked reductions must equal an explicitly block-ordered serial sum.
	want := 0.0
	for lo := 0; lo < n; lo += vecBlock {
		hi := lo + vecBlock
		if hi > n {
			hi = n
		}
		s := 0.0
		for _, v := range x[lo:hi] {
			s += math.Abs(v)
		}
		want += s
	}
	if got := x.Norm1(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Norm1 = %v, block-ordered serial = %v", got, want)
	}
}

// TestStepDeltaSmallMatchesUnfused pins the n ≤ vecBlock fused path to
// the StepInto+Diff1 composition it replaces.
func TestStepDeltaSmallMatchesUnfused(t *testing.T) {
	const n = 300
	m := randCSR(t, n, n, 5, 31)
	x := randVec(n, 32)
	e := randVec(n, 33)

	want := NewVec(n)
	m.StepInto(want, x, e, nil)
	wantDelta := Diff1(want, x)

	got := NewVec(n)
	gotDelta := m.StepDelta(got, x, e, nil)
	if !bitsEqual(got, want) {
		t.Fatal("fused StepDelta vector differs from StepInto")
	}
	if math.Float64bits(gotDelta) != math.Float64bits(wantDelta) {
		t.Fatalf("fused StepDelta = %v, unfused = %v", gotDelta, wantDelta)
	}
}

func BenchmarkMulVec(b *testing.B) {
	const n = 20000
	rng := xrand.New(9)
	entries := make([]entry, n*8)
	for i := range entries {
		entries[i] = entry{
			Row: int(rng.Uint64() % n),
			Col: int(rng.Uint64() % n),
			Val: rng.Float64(),
		}
	}
	m, err := newCSR(n, n, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(n, 10)
	dst := NewVec(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkStepDelta(b *testing.B) {
	const n = 20000
	rng := xrand.New(9)
	entries := make([]entry, n*8)
	for i := range entries {
		entries[i] = entry{
			Row: int(rng.Uint64() % n),
			Col: int(rng.Uint64() % n),
			Val: rng.Float64(),
		}
	}
	m, err := newCSR(n, n, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(n, 10)
	e := randVec(n, 11)
	dst := NewVec(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepDelta(dst, x, e, nil)
	}
}
