package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map in the determinism-critical
// packages when the loop body has order-dependent effects. Go
// randomizes map iteration order per run, so a map range that sends,
// writes to an ordered output, accumulates floating point, or emits
// telemetry produces a different history every execution — exactly the
// nondeterminism that would break the byte-identical fingerprints the
// experiments are checked against (fig6 0xb51aa41cefefc9c4 and
// friends).
//
// The accepted normalization is the collect-then-sort idiom: a body
// that only appends keys (or rows) to a slice which the same function
// passes to sort.* / slices.Sort* is not flagged, and neither is pure
// map-to-map accumulation (writes keyed by the iteration variable,
// integer counters), whose result is order-independent. Everything else
// needs restructuring — onto a sorted key slice, or, as dprcore.Group
// and Loop do (EffDsts with its parallel offset table, AffSrcs with its
// parallel chunk slots), onto arrays laid out in key order so there is
// no map to range — or an explicit //p2plint:allow maporder annotation.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid order-dependent effects inside range-over-map in determinism-critical packages",
	Run:  runMapOrder,
}

// mapOrderPackages are the packages whose outputs must be pure
// functions of seed and configuration. netpeer and cmd/ are exempt:
// the live stack's delivery order is wall-clock nondeterministic
// anyway.
var mapOrderPackages = []string{
	"internal/dprcore",
	"internal/engine",
	"internal/simnet",
	"internal/transport",
	"internal/telemetry",
	"internal/experiments",
}

// emitEffectNames are callee names that write to an ordered sink:
// senders, io/fmt writers, hashes, encoders, and diagnostic sinks.
var emitEffectNames = map[string]bool{
	"Send": true, "Flush": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true, "Sum": true, "Reportf": true,
}

// sortFuncNames are the sort entry points recognized as key
// normalization (package sort and slices).
var sortFuncNames = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Ints": true, "Strings": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true,
}

func runMapOrder(pass *Pass) error {
	scoped := false
	for _, suffix := range mapOrderPackages {
		if pathHasSuffix(pass.Pkg.Path(), suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := sortedExprs(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := pass.TypesInfo.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
					return true
				}
				if pos, what := mapRangeEffect(pass, rng.Body, sorted); what != "" {
					pass.Reportf(pos,
						"range over map %s has order-dependent effect (%s): iterate a sorted key slice instead",
						exprString(rng.X), what)
				}
				return true
			})
		}
	}
	return nil
}

// sortedExprs collects the canonical spellings of every expression the
// function passes to a recognized sort call — the slices that count as
// normalized append targets.
func sortedExprs(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !sortFuncNames[sel.Sel.Name] {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); !ok ||
			(pkg.Imported().Path() != "sort" && pkg.Imported().Path() != "slices") {
			return true
		}
		out[exprString(call.Args[0])] = true
		return true
	})
	return out
}

// mapRangeEffect scans a map-range body and returns the position and
// description of the first order-dependent effect, or ("", NoPos) for a
// body whose observable result is iteration-order independent.
func mapRangeEffect(pass *Pass, body *ast.BlockStmt, sorted map[string]bool) (token.Pos, string) {
	var pos token.Pos
	var what string
	found := func(p token.Pos, w string) {
		if what == "" {
			pos, what = p, w
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found(n.Pos(), "channel send")
		case *ast.AssignStmt:
			checkFloatAccum(pass, n, found)
			checkAppendEffect(pass, n, sorted, found)
		case *ast.CallExpr:
			checkCallEffect(pass, n, found)
		}
		return true
	})
	return pos, what
}

// checkCallEffect flags calls into ordered sinks: the emit-name set and
// any method of a telemetry-style Observer interface.
func checkCallEffect(pass *Pass, call *ast.CallExpr, found func(token.Pos, string)) {
	name := calleeName(call)
	if name == "" {
		return
	}
	if emitEffectNames[name] {
		found(call.Pos(), "call to "+name)
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := pass.TypesInfo.Selections[sel]; s != nil {
		if named, ok := s.Recv().(*types.Named); ok &&
			types.IsInterface(named) && named.Obj().Name() == "Observer" {
			found(call.Pos(), "telemetry event "+name)
		}
	}
}

// checkFloatAccum flags floating-point compound accumulation (sum += v)
// on a target shared across iterations: addition order perturbs the low
// bits. Accumulating into the map being ranged (m[k] += v) touches each
// key independently and stays order-independent.
func checkFloatAccum(pass *Pass, as *ast.AssignStmt, found func(token.Pos, string)) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				continue
			}
		}
		if t := pass.TypesInfo.TypeOf(lhs); t != nil {
			if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
				found(as.Pos(), "floating-point accumulation into "+exprString(lhs))
			}
		}
	}
}

// checkAppendEffect flags appends that build an ordered output from map
// iteration. Appending into a map slot (m[k] = append(m[k], …)) is
// keyed accumulation, and appending to a slice the function sorts is
// the collect-then-sort idiom; both pass.
func checkAppendEffect(pass *Pass, as *ast.AssignStmt, sorted map[string]bool, found func(token.Pos, string)) {
	for _, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		} else if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		base := ast.Unparen(call.Args[0])
		if ix, ok := base.(*ast.IndexExpr); ok {
			if _, isMap := pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				continue
			}
		}
		if sorted[exprString(base)] {
			continue
		}
		found(call.Pos(), "append to "+exprString(base)+" that is never sorted")
	}
}
