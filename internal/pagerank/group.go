package pagerank

import (
	"fmt"

	"p2prank/internal/vecmath"
)

// GroupSystem is the open-system equation of one page group
// (Algorithm 2): R = A·R + βE + X. A is the transposed intra-group
// transition matrix (row v gathers α/d(u) over inner links u→v), BetaE
// is the precomputed virtual-link source βE, and X is the afferent rank
// vector refreshed from other groups by the distributed loop.
type GroupSystem struct {
	A     *vecmath.CSR
	BetaE vecmath.Vec
}

// NewGroupSystem builds a GroupSystem from local links. n is the number
// of pages in the group, links are (src,dst) pairs in local indices,
// source-ascending (so that every row of A receives its columns in
// order: dprcore.BuildGroups walks the pages that way), deg[u] is the
// TOTAL out-degree of local page u (inner + efferent + external), and
// alpha is the real-link rank fraction. The source vector is the
// paper's E(v) = 1.
func NewGroupSystem(n int, links [][2]int32, deg []int32, alpha float64) (*GroupSystem, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("pagerank: alpha = %v, must be in (0,1)", alpha)
	}
	if len(deg) != n {
		return nil, fmt.Errorf("pagerank: deg has length %d, want %d", len(deg), n)
	}
	counts := make([]int64, n)
	for _, l := range links {
		u, v := l[0], l[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("pagerank: link (%d,%d) out of range for %d pages", u, v, n)
		}
		if deg[u] <= 0 {
			return nil, fmt.Errorf("pagerank: page %d has links but degree %d", u, deg[u])
		}
		counts[v]++
	}
	f, err := vecmath.NewFill(n, n, counts)
	if err != nil {
		return nil, err
	}
	for _, l := range links {
		f.Put(l[1], l[0], alpha/float64(deg[l[0]]))
	}
	a, err := f.CSR()
	if err != nil {
		return nil, err
	}
	return &GroupSystem{A: a, BetaE: vecmath.Const(n, 1-alpha)}, nil
}

// N returns the number of pages in the group.
func (s *GroupSystem) N() int { return len(s.BetaE) }

// Step performs one Jacobi step dst = A·r + βE + x. This is the body of
// DPR2's loop. dst must not alias r. A nil x means X = 0.
func (s *GroupSystem) Step(dst, r, x vecmath.Vec) {
	s.A.StepInto(dst, r, s.BetaE, x)
}

// SolveInPlace runs Algorithm 2 (GroupPageRank): iterate Step from
// the ranks already in r until ‖R_{i+1} − R_i‖₁ ≤ opt.Epsilon, using
// scratch (same length, no aliasing) as the swap buffer, and leave the
// fixed point in r. This is the inner loop of DPR1. Result.Ranks is r
// itself. The distributed loop calls this once per ranker wakeup, so
// the steady state allocates nothing.
func (s *GroupSystem) SolveInPlace(r, x, scratch vecmath.Vec, opt Options) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	n := s.N()
	if len(r) != n {
		return Result{}, fmt.Errorf("pagerank: r has length %d, want %d", len(r), n)
	}
	if len(scratch) != n {
		return Result{}, fmt.Errorf("pagerank: scratch has length %d, want %d", len(scratch), n)
	}
	if x != nil && len(x) != n {
		return Result{}, fmt.Errorf("pagerank: x has length %d, want %d", len(x), n)
	}
	res := Result{}
	if n == 0 {
		res.Converged = true
		res.Ranks = r
		return res, nil
	}
	cur, next := r, scratch
	for it := 0; it < opt.MaxIter; it++ {
		delta := s.A.StepDelta(next, cur, s.BetaE, x)
		cur, next = next, cur
		res.Iterations = it + 1
		res.FinalDelta = delta
		if delta <= opt.Epsilon {
			res.Converged = true
			break
		}
	}
	if res.Iterations%2 == 1 {
		copy(r, scratch) // odd step count: the newest iterate sits in scratch
	}
	res.Ranks = r
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}
