// Package pagerank implements the two centralized solvers of the paper:
//
//   - Classic: Algorithm 1, the original closed-system PageRank where the
//     crawled set is treated as the whole web and rank lost to dangling
//     links is redistributed through the source vector E.
//   - Open: the open-system variant of §3 applied to the whole crawl as a
//     single page group, R = AR + βE with A[v][u] = α/d(u) and d(u)
//     counting external links. Its fixed point is the reference vector R*
//     that the distributed algorithms (DPR1/DPR2) must converge to.
//
// It also provides GroupSystem, the per-group solver of Algorithm 2
// (GroupPageRank) used by each page ranker: R = AR + βE + X, where X is
// the afferent rank received from other groups.
package pagerank

import (
	"errors"
	"fmt"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// Options configures the solvers. The zero value is not usable; start
// from Defaults().
type Options struct {
	// Alpha is the fraction of a page's rank transmitted over real
	// links (the damping factor c of classic PageRank). β = 1 − Alpha
	// goes to virtual links. Must be in (0, 1).
	Alpha float64
	// Epsilon terminates iteration when ‖R_{i+1} − R_i‖₁ ≤ Epsilon.
	Epsilon float64
	// MaxIter bounds the number of iterations; 0 means 10000.
	MaxIter int
	// TrackResiduals records ‖ΔR‖₁ per iteration in Result.Residuals.
	TrackResiduals bool
}

// Defaults returns the paper's standard parameters: α = 0.85,
// ε = 1e-10.
func Defaults() Options {
	return Options{Alpha: 0.85, Epsilon: 1e-10, MaxIter: 10000}
}

func (o *Options) validate() error {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return fmt.Errorf("pagerank: Alpha = %v, must be in (0,1)", o.Alpha)
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("pagerank: negative Epsilon %v", o.Epsilon)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10000
	}
	if o.MaxIter < 0 {
		return fmt.Errorf("pagerank: negative MaxIter %d", o.MaxIter)
	}
	return nil
}

// Result is the outcome of a solver run.
type Result struct {
	// Ranks is the final rank vector, indexed by page.
	Ranks vecmath.Vec
	// Iterations is the number of iteration steps performed.
	Iterations int
	// Converged reports whether the ε threshold was reached before
	// MaxIter.
	Converged bool
	// FinalDelta is ‖R_{i+1} − R_i‖₁ of the last step — the residual
	// the termination check compared against ε. Recorded always (a
	// scalar, unlike Residuals), so telemetry can report it without
	// turning on per-step tracking.
	FinalDelta float64
	// Residuals, if requested, holds ‖R_{i+1} − R_i‖₁ per step.
	Residuals []float64
}

// ErrNotConverged is wrapped into errors returned when MaxIter is
// exhausted before reaching Epsilon.
var ErrNotConverged = errors.New("pagerank: did not converge")

// buildTransposed streams the transposed link matrix straight into its
// final storage: a counting pass over the OutPtr windows sizes each
// destination row, vecmath.NewFill orders the rows by those counts, and
// one scatter pass in ascending source order writes every link where it
// stays. Scattering source-ascending makes every row's columns arrive
// sorted (with duplicate links adjacent, merged in place at the end),
// which is exactly the matrix an unordered-entry build (vecmath's test
// reference) assembles from the same links — so every fingerprint
// downstream is bit-identical to an entry-slice build while only the
// final arrays and one 8-byte cursor a page are ever allocated (the
// entry slice cost 24 transient bytes per link, ~720 MB at the 10⁵
// scale point). weight(u, internalDeg) supplies the per-source value.
func buildTransposed(g *webgraph.Graph, weight func(u int32, internalDeg int) float64) (*vecmath.CSR, error) {
	n := g.NumPages()
	counts := make([]int64, n)
	for p := 0; p < n; p++ {
		for _, v := range g.InternalOut(int32(p)) {
			counts[v]++
		}
	}
	f, err := vecmath.NewFill(n, n, counts)
	if err != nil {
		return nil, err
	}
	for p := 0; p < n; p++ {
		u := int32(p)
		out := g.InternalOut(u)
		if len(out) == 0 {
			continue
		}
		w := weight(u, len(out))
		for _, v := range out {
			f.Put(v, u, w)
		}
	}
	return f.CSR()
}

// BuildTransition assembles the transposed open-system transition matrix
// over all pages of g: row v gathers α/d(u) from every internal link
// u→v. Because d(u) also counts external links, ‖A‖∞ ≤ α < 1 and the
// open-system iteration converges (Theorems 3.1/3.2).
func BuildTransition(g *webgraph.Graph, alpha float64) (*vecmath.CSR, error) {
	return buildTransposed(g, func(u int32, _ int) float64 {
		return alpha / float64(g.OutDegree(u))
	})
}

// Open solves the open-system equation R = AR + βE over the whole crawl,
// producing the centralized reference vector R*. Rank flows out of the
// system through external links, so ‖R‖ settles below the closed-system
// value — the effect behind Figure 7's ≈0.3 average rank.
func Open(g *webgraph.Graph, opt Options) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	a, err := BuildTransition(g, opt.Alpha)
	if err != nil {
		return Result{}, err
	}
	n := g.NumPages()
	// The paper's source vector E(v) = 1 for every page.
	sys := &GroupSystem{A: a, BetaE: vecmath.Const(n, 1-opt.Alpha)}
	r0 := vecmath.Const(n, 1)
	return sys.Solve(r0, nil, opt)
}

// Classic runs Algorithm 1: the closed-system power iteration with
// rank-sink compensation. R stays a distribution (‖R‖₁ = 1): each step
// computes R' = cMR with M[v][u] = 1/d_int(u) over internal links only,
// measures the lost mass D = ‖R‖₁ − ‖R'‖₁ (damping + dangling pages),
// and redistributes it as R' += D·E.
func Classic(g *webgraph.Graph, opt Options) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	n := g.NumPages()
	if n == 0 {
		return Result{Ranks: vecmath.NewVec(0), Converged: true}, nil
	}
	// The uniform source distribution E(v) = 1/n.
	e := vecmath.Const(n, 1/float64(n))
	// Closed system: only internal links exist, degree is internal
	// degree, damping c = Alpha folded into the matrix.
	a, err := buildTransposed(g, func(_ int32, internalDeg int) float64 {
		return opt.Alpha / float64(internalDeg)
	})
	if err != nil {
		return Result{}, err
	}
	r := vecmath.Const(n, 1/float64(n))
	next := vecmath.NewVec(n)
	res := Result{}
	for it := 0; it < opt.MaxIter; it++ {
		a.MulVec(next, r)
		// Lost mass: damping plus dangling pages.
		d := r.Norm1() - next.Norm1()
		next.Axpy(d, e)
		delta := vecmath.Diff1(next, r)
		r, next = next, r
		res.Iterations = it + 1
		if opt.TrackResiduals {
			res.Residuals = append(res.Residuals, delta)
		}
		if delta <= opt.Epsilon {
			res.Converged = true
			break
		}
	}
	res.Ranks = r
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

// ErrorBound returns the a-posteriori bound of Theorem 3.3:
// ‖x* − x_m‖ ≤ ‖A‖/(1−‖A‖) · ‖x_m − x_{m−1}‖. It is how GroupPageRank's
// termination threshold translates into a true-error guarantee. normA
// must be < 1.
func ErrorBound(normA, lastDelta float64) float64 {
	if normA >= 1 || normA < 0 {
		return 0
	}
	return normA / (1 - normA) * lastDelta
}
