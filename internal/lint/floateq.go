package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatPackages are the packages whose float64 values are rank scores
// or their building blocks. Iteration order and FP non-associativity
// perturb low bits, so exact ==/!= between two computed scores is
// almost always a bug; comparisons must go
// through an epsilon (vecmath.RelErr1, math.Abs < eps) or carry a
// //p2plint:allow floateq annotation explaining why exactness is
// intended (e.g. a sort tie-break that only needs *some* strict total
// order).
var floatPackages = []string{
	"internal/pagerank",
	"internal/vecmath",
	// The simulator driver and the run loop that samples its ranks
	// against the reference.
	"internal/engine",
}

// FloatEq forbids ==/!= between floating-point operands in the rank
// math packages.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "forbid ==/!= between floating-point rank values; compare with an epsilon",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) error {
	scoped := false
	for _, suffix := range floatPackages {
		if pathHasSuffix(pass.Pkg.Path(), suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if isFloat(pass.TypesInfo.TypeOf(bin.X)) && isFloat(pass.TypesInfo.TypeOf(bin.Y)) {
				pass.Reportf(bin.OpPos,
					"%s between floating-point values: use an epsilon comparison (or annotate with //p2plint:allow floateq)",
					bin.Op)
			}
			return true
		})
	}
	return nil
}

// isFloat reports whether t's underlying type is a floating-point
// (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
