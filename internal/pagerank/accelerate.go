package pagerank

import (
	"fmt"
	"math"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// OpenAccelerated solves the same open-system fixed point as Open but
// applies periodic geometric extrapolation in the spirit of Kamvar,
// Haveliwala, Manning et al., "Extrapolation Methods for Accelerating
// PageRank Computations" — the paper's reference [8]. Every `every`
// iterations the dominant error mode's decay rate is estimated from
// successive difference norms, λ ≈ ‖x₂−x₁‖₁/‖x₁−x₀‖₁, and the
// remaining geometric tail is summed in closed form:
//
//	x* ≈ x₂ + λ/(1−λ) · (x₂−x₁)
//
// (Aitken Δ² applied to the sequence as a whole rather than per
// component, which is unstable when several modes have similar
// magnitude.) Two safeguards keep the method never-much-worse than the
// plain iteration: a jump is attempted only when two successive rate
// estimates agree (a single dominant mode is actually in control), and
// if a jump fails to shrink the residual the extrapolator disables
// itself for the rest of the run.
func OpenAccelerated(g *webgraph.Graph, opt Options, every int) (Result, error) {
	if every < 3 {
		return Result{}, fmt.Errorf("pagerank: extrapolation period %d, need ≥ 3", every)
	}
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	a, err := BuildTransition(g, opt.Alpha)
	if err != nil {
		return Result{}, err
	}
	n := g.NumPages()
	betaE := vecmath.Const(n, 1-opt.Alpha)

	r := vecmath.Const(n, 1)
	next := vecmath.NewVec(n)
	prevDiff := vecmath.NewVec(n) // x₁−x₀ of the current window
	diff := vecmath.NewVec(n)     // x₂−x₁
	res := Result{}
	if n == 0 {
		res.Converged = true
		res.Ranks = r
		return res, nil
	}
	havePrev := false
	enabled := true
	lastRate := -1.0
	// pendingCheck > 0 means a jump just happened; compare the next
	// residual against preJumpDelta to judge it.
	pendingCheck := false
	preJumpDelta := 0.0
	for it := 0; it < opt.MaxIter; it++ {
		a.MulVec(next, r)
		next.Add(betaE)
		for i := range diff {
			diff[i] = next[i] - r[i]
		}
		delta := diff.Norm1()
		r, next = next, r
		res.Iterations = it + 1
		if opt.TrackResiduals {
			res.Residuals = append(res.Residuals, delta)
		}
		if delta <= opt.Epsilon {
			res.Converged = true
			break
		}
		if pendingCheck {
			pendingCheck = false
			if delta >= preJumpDelta {
				// The jump made things worse: this spectrum is not
				// single-mode dominated. Stop extrapolating.
				enabled = false
			}
		}
		if enabled && (it+1)%every == 0 && havePrev {
			lambda := geometricRate(prevDiff, diff)
			stable := lambda > 0 && lastRate > 0 &&
				math.Abs(lambda-lastRate) <= 0.05*lastRate
			if lambda > 0 {
				lastRate = lambda
			}
			if stable {
				// Sum the remaining geometric tail:
				// x* ≈ x₂ + λ/(1−λ)·d₂.
				r.Axpy(lambda/(1-lambda), diff)
				havePrev = false // restart the window after the jump
				pendingCheck = true
				preJumpDelta = delta
				continue
			}
		} else if havePrev {
			if lambda := geometricRate(prevDiff, diff); lambda > 0 {
				lastRate = lambda
			}
		}
		prevDiff, diff = diff, prevDiff
		havePrev = true
	}
	res.Ranks = r
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

// geometricRate estimates the dominant decay rate λ from two successive
// difference vectors. It returns 0 when the estimate is unusable (flat
// or non-contractive sequence).
func geometricRate(d1, d2 vecmath.Vec) float64 {
	n1, n2 := d1.Norm1(), d2.Norm1()
	if n1 <= 0 || n2 <= 0 {
		return 0
	}
	lambda := n2 / n1
	if math.IsNaN(lambda) || lambda <= 0 || lambda >= 0.999 {
		return 0
	}
	return lambda
}
