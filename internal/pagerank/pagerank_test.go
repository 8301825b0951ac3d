package pagerank

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// chain builds a 3-page chain 0 -> 1 -> 2 with one external link on 2.
func chain(t *testing.T) *webgraph.Graph {
	t.Helper()
	var b webgraph.Builder
	s := b.AddSite("a.edu")
	for i := 0; i < 3; i++ {
		b.AddPage(s)
	}
	if err := b.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddExternalLinks(2, 1); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func genGraph(t testing.TB, pages int, seed uint64) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = seed
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOpenChainExact(t *testing.T) {
	// With α=0.85, β=0.15, E=1, d(0)=d(1)=d(2)=1:
	// R0 = β; R1 = α·R0 + β; R2 = α·R1 + β.
	g := chain(t)
	opt := Defaults()
	res, err := Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	beta := 0.15
	want := vecmath.Vec{beta, 0.85*beta + beta, 0.85*(0.85*beta+beta) + beta}
	if vecmath.Diff1(res.Ranks, want) > 1e-8 {
		t.Fatalf("Open ranks = %v, want %v", res.Ranks, want)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
}

func TestOpenFixedPointResidual(t *testing.T) {
	g := genGraph(t, 3000, 7)
	opt := Defaults()
	res, err := Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildTransition(g, opt.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Residual ‖AR + βE − R‖₁ must be tiny.
	n := g.NumPages()
	ar := vecmath.NewVec(n)
	a.MulVec(ar, res.Ranks)
	ar.AddConst(1 - opt.Alpha) // βE with E=1
	if d := vecmath.Diff1(ar, res.Ranks); d > 1e-7 {
		t.Fatalf("fixed-point residual = %v", d)
	}
}

func TestOpenRanksPositive(t *testing.T) {
	g := genGraph(t, 2000, 3)
	res, err := Open(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks.Min() <= 0 {
		t.Fatalf("min rank = %v, want > 0 (Lemma 1)", res.Ranks.Min())
	}
}

// The external-leak effect behind Figure 7: with the paper-calibrated
// external fraction (8/15 of links), the converged mean rank sits near
// 0.25–0.35 rather than 1.
func TestOpenMeanRankLeak(t *testing.T) {
	g := genGraph(t, 20000, 11)
	res, err := Open(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	mean := res.Ranks.Mean()
	if mean < 0.2 || mean > 0.4 {
		t.Fatalf("mean rank = %v, want in [0.2, 0.4] (paper reports ≈0.3)", mean)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := chain(t)
	for _, opt := range []Options{
		{Alpha: 0, Epsilon: 1e-8},
		{Alpha: 1, Epsilon: 1e-8},
		{Alpha: -0.5, Epsilon: 1e-8},
		{Alpha: 0.85, Epsilon: -1},
		{Alpha: 0.85, Epsilon: 1e-8, MaxIter: -3},
	} {
		if _, err := Open(g, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

func TestNotConvergedError(t *testing.T) {
	g := genGraph(t, 2000, 1)
	opt := Defaults()
	opt.MaxIter = 2
	opt.Epsilon = 1e-15
	_, err := Open(g, opt)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

// The open-system step contracts: ‖A‖₁ ≤ α (every column of A sums to
// α·d_int(u)/d(u)), so each residual ‖R_{i+1} − R_i‖₁ is at most α times
// the one before, and the residuals fall until the solve stops.
func TestResidualsMonotoneDecay(t *testing.T) {
	g := genGraph(t, 3000, 9)
	opt := Defaults()
	a, err := BuildTransition(g, opt.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumPages()
	sys := &GroupSystem{A: a, BetaE: vecmath.Const(n, 1-opt.Alpha)}
	r, next := vecmath.Const(n, 1), vecmath.NewVec(n)
	prev := math.Inf(1)
	steps := 0
	for ; prev > opt.Epsilon; steps++ {
		if steps == opt.MaxIter {
			t.Fatalf("no convergence in %d steps", steps)
		}
		sys.Step(next, r, nil)
		delta := vecmath.Diff1(next, r)
		if delta > opt.Alpha*prev+1e-12 {
			t.Fatalf("step %d: residual %v above α × the previous %v", steps, delta, prev)
		}
		r, next, prev = next, r, delta
	}
	if steps < 10 {
		t.Fatalf("converged in %d steps: the decay is barely exercised", steps)
	}
}

func TestTransitionNormBound(t *testing.T) {
	g := genGraph(t, 5000, 13)
	const alpha = 0.85
	a, err := BuildTransition(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Column sums are ≤ α by construction; ‖A‖∞ (max row sum of the
	// transposed matrix) equals the max column sum of the original, so
	// it is ≤ α. This is the Theorem 3.1/3.2 convergence certificate.
	// The entries are nonnegative, so the row sums are Aᵀ·1.
	at := a.Transpose()
	sums := vecmath.NewVec(at.NumRows)
	at.MulVec(sums, vecmath.Const(at.NumCols, 1))
	if n := sums.Max(); n > alpha+1e-12 {
		t.Fatalf("max column sum %v exceeds α", n)
	}
}

func TestErrorBound(t *testing.T) {
	if got := ErrorBound(0.5, 2); got != 2 {
		t.Errorf("ErrorBound(0.5,2) = %v, want 2", got)
	}
	if got := ErrorBound(1.0, 2); got != 0 {
		t.Errorf("ErrorBound must reject normA >= 1, got %v", got)
	}
	if got := ErrorBound(-0.1, 2); got != 0 {
		t.Errorf("ErrorBound must reject negative normA, got %v", got)
	}
}

// Theorem 3.3 holds empirically: the a-posteriori bound dominates the
// true error at every iteration.
func TestErrorBoundDominatesTrueError(t *testing.T) {
	g := genGraph(t, 2000, 21)
	opt := Defaults()
	res, err := Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	star := res.Ranks
	// Re-run with few iterations and compare.
	for _, iters := range []int{1, 3, 7, 15} {
		o := Defaults()
		o.MaxIter = iters
		o.Epsilon = 0
		partial, err := Open(g, o)
		if partial.Converged || err == nil {
			// ε=0 can never converge; the error must be ErrNotConverged.
			if !errors.Is(err, ErrNotConverged) {
				t.Fatalf("expected ErrNotConverged, got %v", err)
			}
		}
		trueErr := vecmath.Diff1(partial.Ranks, star)
		bound := ErrorBound(opt.Alpha, partial.FinalDelta)
		if trueErr > bound+1e-9 {
			t.Fatalf("iter %d: true error %v exceeds Thm 3.3 bound %v", iters, trueErr, bound)
		}
	}
}

// Lemma 1 property: for random group systems with X ≥ 0, the solution is
// non-negative.
func TestGroupSolutionNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(20)
		var links [][2]int32
		deg := make([]int32, n)
		for u := 0; u < n; u++ {
			k := r.Intn(4)
			deg[u] = int32(k + r.Intn(3)) // total degree ≥ internal links
			if deg[u] < int32(k) {
				deg[u] = int32(k)
			}
			if k > 0 && deg[u] == 0 {
				deg[u] = int32(k)
			}
			for j := 0; j < k; j++ {
				links = append(links, [2]int32{int32(u), int32(r.Intn(n))})
			}
		}
		x := vecmath.NewVec(n)
		for i := range x {
			x[i] = r.Float64() * 3
		}
		sys, err := NewGroupSystem(n, links, deg, 0.85)
		if err != nil {
			return true // invalid random instance; skip
		}
		res, err := sys.SolveInPlace(vecmath.NewVec(n), x, vecmath.NewVec(n), Defaults())
		if err != nil {
			return false
		}
		return res.Ranks.Min() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Lemma 2 property: X₁ ≥ X₂ ⇒ R₁ ≥ R₂ (monotonicity of the fixed point
// in the afferent vector).
func TestGroupMonotoneInXProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(15)
		var links [][2]int32
		deg := make([]int32, n)
		for u := 0; u < n; u++ {
			k := r.Intn(4)
			deg[u] = int32(k) + int32(r.Intn(3))
			for j := 0; j < k; j++ {
				links = append(links, [2]int32{int32(u), int32(r.Intn(n))})
			}
		}
		sys, err := NewGroupSystem(n, links, deg, 0.85)
		if err != nil {
			return true
		}
		x2 := vecmath.NewVec(n)
		x1 := vecmath.NewVec(n)
		for i := range x2 {
			x2[i] = r.Float64()
			x1[i] = x2[i] + r.Float64() // x1 ≥ x2
		}
		res1, err1 := sys.SolveInPlace(vecmath.NewVec(n), x1, vecmath.NewVec(n), Defaults())
		res2, err2 := sys.SolveInPlace(vecmath.NewVec(n), x2, vecmath.NewVec(n), Defaults())
		if err1 != nil || err2 != nil {
			return false
		}
		return vecmath.Dominates(res1.Ranks, res2.Ranks, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewGroupSystemErrors(t *testing.T) {
	deg := []int32{1, 1}
	if _, err := NewGroupSystem(2, [][2]int32{{0, 5}}, deg, 0.85); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := NewGroupSystem(2, nil, []int32{1}, 0.85); err == nil {
		t.Error("short degree vector accepted")
	}
	if _, err := NewGroupSystem(2, nil, deg, 1.5); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := NewGroupSystem(2, [][2]int32{{0, 1}}, []int32{0, 0}, 0.85); err == nil {
		t.Error("zero degree with links accepted")
	}
	if _, err := NewGroupSystem(2, [][2]int32{{1, 0}, {0, 0}}, deg, 0.85); err == nil {
		t.Error("links out of source order accepted")
	}
}

// TestDirectFillsMatchNewCSR: the two builders that write links straight
// into length-major storage build, array for array, the matrix an
// unordered-entry build (vecmath's test reference, newCSR) assembles
// from the same links — parallel links merged the same way. The links
// are walked source-ascending, so the entries already arrive in the
// column order that build sorts them into, and the reference reduces to
// counting each row and putting every entry in arrival order.
func TestDirectFillsMatchNewCSR(t *testing.T) {
	g := genGraph(t, 3000, 5)
	const alpha = 0.85
	n := g.NumPages()
	var links [][2]int32
	deg := make([]int32, n)
	counts := make([]int64, n)
	for p := 0; p < n; p++ {
		u := int32(p)
		deg[p] = int32(g.OutDegree(u))
		for _, v := range g.InternalOut(u) {
			links = append(links, [2]int32{u, v})
			counts[v]++
		}
	}
	f, err := vecmath.NewFill(n, n, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		f.Put(l[1], l[0], alpha/float64(deg[l[0]]))
	}
	want, err := f.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if want.NNZ() == len(links) {
		t.Fatal("the crawl has no parallel links: the merge path is not exercised")
	}
	a, err := BuildTransition(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Error("BuildTransition differs from the entry build over the same links")
	}
	sys, err := NewGroupSystem(n, links, deg, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.A, want) {
		t.Error("NewGroupSystem differs from the entry build over the same links")
	}
}

func TestGroupSystemEmpty(t *testing.T) {
	sys, err := NewGroupSystem(0, nil, nil, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveInPlace(vecmath.NewVec(0), nil, vecmath.NewVec(0), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("empty system did not converge")
	}
}

// Stacking group fixed points with exact afferent vectors reproduces the
// global fixed point — the consistency property that makes DPR1/DPR2
// converge to centralized PageRank.
func TestGroupDecompositionConsistency(t *testing.T) {
	g := genGraph(t, 4000, 17)
	opt := Defaults()
	global, err := Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Partition pages into 4 groups round-robin (deliberately bad
	// locality to stress cross-group traffic).
	const k = 4
	groupOf := func(p int32) int { return int(p) % k }
	localIdx := make([]int32, g.NumPages())
	var sizes [k]int
	for p := 0; p < g.NumPages(); p++ {
		localIdx[p] = int32(sizes[groupOf(int32(p))])
		sizes[groupOf(int32(p))]++
	}
	for gi := 0; gi < k; gi++ {
		var links [][2]int32
		deg := make([]int32, sizes[gi])
		x := vecmath.NewVec(sizes[gi])
		for p := 0; p < g.NumPages(); p++ {
			u := int32(p)
			if groupOf(u) == gi {
				deg[localIdx[u]] = int32(g.OutDegree(u))
			}
			for _, v := range g.InternalOut(u) {
				if groupOf(v) != gi {
					continue
				}
				if groupOf(u) == gi {
					links = append(links, [2]int32{localIdx[u], localIdx[v]})
				} else {
					// Afferent link: exact rank flow from the global
					// fixed point.
					x[localIdx[v]] += opt.Alpha * global.Ranks[u] / float64(g.OutDegree(u))
				}
			}
		}
		sys, err := NewGroupSystem(sizes[gi], links, deg, opt.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.SolveInPlace(vecmath.NewVec(sizes[gi]), x, vecmath.NewVec(sizes[gi]), opt)
		if err != nil {
			t.Fatal(err)
		}
		// Compare against the global ranks restricted to this group.
		for p := 0; p < g.NumPages(); p++ {
			if groupOf(int32(p)) != gi {
				continue
			}
			if math.Abs(res.Ranks[localIdx[p]]-global.Ranks[p]) > 1e-6 {
				t.Fatalf("group %d page %d: local %v != global %v",
					gi, p, res.Ranks[localIdx[p]], global.Ranks[p])
			}
		}
	}
}

func BenchmarkOpen10k(b *testing.B) {
	g := genGraph(b, 10000, 1)
	opt := Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}
