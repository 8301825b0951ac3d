package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := &SplitMix64{state: 42}
	b := &SplitMix64{state: 42}
	for i := 0; i < 100; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("streams diverged at step %d: %x != %x", i, av, bv)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical SplitMix64 implementation
	// (Steele, Lea, Flood) with seed 1234567.
	s := SplitMix64{state: 1234567}
	want := []uint64{
		// 6457827717110365317, 3203168211198807973, 9817491932198370423
		0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("value %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Fork()
	// The fork must be deterministic: rebuilding the same tree gives the
	// same child stream.
	parent2 := New(99)
	child2 := parent2.Fork()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatalf("forked streams not reproducible at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 100; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const n = 200000
	const mean = 7.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.05 {
		t.Fatalf("exponential mean = %v, want ~%v", got, mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	r := New(1)
	if v := r.Exp(0); v != 0 {
		t.Fatalf("Exp(0) = %v, want 0", v)
	}
	if v := r.Exp(-3); v != 0 {
		t.Fatalf("Exp(-3) = %v, want 0", v)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Sample()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// P(0) for s=1, n=100 is 1/H(100) ~ 0.1928.
	p0 := float64(counts[0]) / draws
	if math.Abs(p0-0.1928) > 0.01 {
		t.Fatalf("Zipf P(0) = %v, want ~0.1928", p0)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Sample()]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-0.1) > 0.01 {
			t.Fatalf("s=0 Zipf bucket %d has p=%v, want ~0.1", i, got)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for _, f := range []func(){
		func() { NewZipf(r, 0, 1) },
		func() { NewZipf(r, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZipfN(t *testing.T) {
	z := NewZipf(New(1), 42, 1)
	if z.N() != 42 {
		t.Fatalf("N = %d, want 42", z.N())
	}
}

func TestSeedMatchesNew(t *testing.T) {
	var r Rand
	for _, seed := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64} {
		r.Uint64() // Seed must overwrite whatever state r is in
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 16; i++ {
			if g, w := r.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %#x draw %d: Seed gives %#x, New gives %#x", seed, i, g, w)
			}
		}
	}
}

// One table sampled by many streams must give each stream exactly what
// a private NewZipf would have: the split moved no arithmetic.
func TestZipfTableSharedAcrossStreams(t *testing.T) {
	tab := NewZipfTable(300, 0.8)
	if tab.N() != 300 {
		t.Fatalf("N = %d, want 300", tab.N())
	}
	for seed := uint64(1); seed <= 20; seed++ {
		own := NewZipf(New(seed), 300, 0.8)
		var r Rand
		r.Seed(seed)
		z := tab.Sampler(&r)
		for i := 0; i < 200; i++ {
			if g, w := z.Sample(), own.Sample(); g != w {
				t.Fatalf("seed %d draw %d: shared table gives %d, private sampler %d", seed, i, g, w)
			}
		}
	}
}

func TestZipfTableSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		s    float64
		want int
	}{
		{5000, 1, 5000},
		{10, 0, 10},
		{1, 3, 1},
		// 2^-50 is the last term float64 can add to 1: the CDF is
		// {1-ε, 1, 1, …} and only items 0 and 1 can be drawn.
		{5000, 50, 2},
		{5000, math.Inf(1), 1},
	} {
		tab := NewZipfTable(c.n, c.s)
		if got := tab.Support(); got != c.want {
			t.Errorf("n=%d s=%v: Support = %d, want %d", c.n, c.s, got, c.want)
		}
	}
	// Nothing outside the count comes out: a table whose tail is flat
	// in float64 (exponent 16, items past ~10 add less than an ulp).
	tab := NewZipfTable(64, 16)
	reached := map[int]bool{}
	z := tab.Sampler(New(5))
	for i := 0; i < 200000; i++ {
		reached[z.Sample()] = true
	}
	if len(reached) > tab.Support() {
		t.Fatalf("drew %d distinct items, Support says %d", len(reached), tab.Support())
	}
	for i := range reached {
		if i > 0 && tab.cdf[i] == tab.cdf[i-1] {
			t.Fatalf("drew item %d, which has no probability mass", i)
		}
	}
}

// FuzzZipfSample holds the guided search to a binary search over the
// whole CDF, for a drawn table and draw, the draws at the ends of [0, 1)
// and the draws on and just below a guide boundary j/m.
func FuzzZipfSample(f *testing.F) {
	f.Add(uint16(100), 1.0, uint64(12345))
	f.Add(uint16(1), 0.0, uint64(0))
	f.Add(uint16(5000), 0.0, uint64(1)<<52)
	f.Add(uint16(5000), 50.0, ^uint64(0))  // saturated: support 2
	f.Add(uint16(64), 16.0, uint64(7)<<40) // flat float64 tail
	f.Add(uint16(3000), 2.5, uint64(1)<<62)
	f.Fuzz(func(t *testing.T, n uint16, s float64, k uint64) {
		if n == 0 || !(s >= 0) {
			t.Skip()
		}
		tab := makeZipfTable(int(n), s)
		m := uint64(len(tab.guide) - 1)
		const ulp = 1.0 / (1 << 53)
		j := k % m
		for _, u := range []float64{
			0, 1 - ulp, float64(k>>11) * ulp,
			float64(j) / float64(m), float64(j+1)/float64(m) - ulp,
		} {
			if got, want := zipfIndex(tab.cdf, tab.guide, u), wholeCDFIndex(tab.cdf, u); got != want {
				t.Fatalf("n=%d s=%v u=%v: guided search gives %d, whole-CDF search %d", n, s, u, got, want)
			}
		}
	})
}

// wholeCDFIndex is the unguided binary search over all of cdf.
func wholeCDFIndex(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func BenchmarkRandUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1<<16, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample()
	}
}
