// Package hits implements Kleinberg's HITS algorithm (Authoritative
// Sources in a Hyperlinked Environment, SODA 1998) — the other seminal
// link-analysis algorithm the paper's introduction weighs against
// PageRank. It serves as a comparison baseline: like PageRank it is an
// iterative eigenvector computation over the link graph, with the same
// synchronization obstacle to naive distribution that motivates the
// paper's open-system reformulation.
package hits

import (
	"errors"
	"fmt"
	"math"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// Options configures the iteration.
type Options struct {
	// Epsilon terminates when both score vectors move less than this
	// in L1 between iterations. Must be positive.
	Epsilon float64
	// MaxIter bounds the iteration count (0 = 1000).
	MaxIter int
}

// DefaultOptions returns ε = 1e-10, 1000 iterations.
func DefaultOptions() Options { return Options{Epsilon: 1e-10, MaxIter: 1000} }

// Result holds the converged scores.
type Result struct {
	// Hubs scores pages by how well they point at authorities.
	Hubs vecmath.Vec
	// Authorities scores pages by how well hubs point at them.
	Authorities vecmath.Vec
	// Iterations is the number of update rounds performed.
	Iterations int
	// Converged reports whether ε was reached before MaxIter.
	Converged bool
}

// ErrNotConverged is wrapped into the error returned when MaxIter is
// exhausted.
var ErrNotConverged = errors.New("hits: did not converge")

// Compute runs HITS over the internal links of g. External links have
// no identified endpoint and are ignored — HITS is defined on the
// induced subgraph the crawler actually saw. Scores are L2-normalized
// each round, as in the original formulation.
func Compute(g *webgraph.Graph, opt Options) (Result, error) {
	if opt.Epsilon <= 0 {
		return Result{}, fmt.Errorf("hits: Epsilon = %v, must be positive", opt.Epsilon)
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 1000
	}
	if opt.MaxIter < 0 {
		return Result{}, fmt.Errorf("hits: negative MaxIter %d", opt.MaxIter)
	}
	n := g.NumPages()
	res := Result{
		Hubs:        vecmath.Const(n, 1),
		Authorities: vecmath.Const(n, 1),
	}
	if n == 0 {
		res.Converged = true
		return res, nil
	}
	normalize(res.Hubs)
	normalize(res.Authorities)
	newH := vecmath.NewVec(n)
	newA := vecmath.NewVec(n)
	for it := 0; it < opt.MaxIter; it++ {
		// a(v) = Σ_{u→v} h(u)
		newA.Zero()
		for p := 0; p < n; p++ {
			u := int32(p)
			h := res.Hubs[p]
			for _, v := range g.InternalOut(u) {
				newA[v] += h
			}
		}
		normalize(newA)
		// h(u) = Σ_{u→v} a(v)
		for p := 0; p < n; p++ {
			u := int32(p)
			s := 0.0
			for _, v := range g.InternalOut(u) {
				s += newA[v]
			}
			newH[p] = s
		}
		normalize(newH)
		delta := vecmath.Diff1(newA, res.Authorities) + vecmath.Diff1(newH, res.Hubs)
		res.Authorities, newA = newA, res.Authorities
		res.Hubs, newH = newH, res.Hubs
		res.Iterations = it + 1
		if delta <= opt.Epsilon {
			res.Converged = true
			break
		}
	}
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

// normalize scales x to unit L2 norm; an all-zero vector is left as is
// (a graph with no links has no meaningful scores).
func normalize(x vecmath.Vec) {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	if s == 0 {
		return
	}
	x.Scale(1 / math.Sqrt(s))
}
