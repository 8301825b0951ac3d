package lint

import (
	"go/ast"
	"go/types"
)

// GoroLife requires every goroutine spawned in netpeer to be tied to a
// shutdown path. The churn machinery kills and rebuilds peers all run
// long; an untracked goroutine per restart is a leak that only shows up
// as fd exhaustion hours into a soak. A `go` statement passes if the
// spawned body — the function literal, or the same-package declaration
// it calls — references any of:
//
//   - a sync.WaitGroup method (Done/Wait/Add), the house pattern:
//     wg.Add(1) in the spawning scope, defer wg.Done() in the body;
//   - a channel operation (send, receive, close, select, or range over
//     a channel), i.e. a done/stop channel the body observes;
//   - a context.Context (ctx.Done() et al.).
//
// A goroutine whose target cannot be resolved statically (a function
// value or cross-package call) is flagged too: ownership must be
// provable where the goroutine is spawned. Intentional fire-and-forget
// goroutines must say so with //p2plint:allow gorolife -- <reason>.
var GoroLife = &Analyzer{
	Name: "gorolife",
	Doc:  "require every `go` statement in netpeer to be tied to a WaitGroup, done channel, or context",
	Run:  runGoroLife,
}

// goroLifePackages are the packages whose goroutines must be
// shutdown-tied: the live peer runtime, whose churn schedule rebuilds
// peers mid-run.
var goroLifePackages = []string{
	"internal/netpeer",
}

func runGoroLife(pass *Pass) error {
	scoped := false
	for _, suffix := range goroLifePackages {
		if pathHasSuffix(pass.Pkg.Path(), suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	graph := buildCallGraph(&Package{Files: pass.Files, Info: pass.TypesInfo})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, graph, g.Call)
			if body == nil {
				pass.Reportf(g.Pos(),
					"goroutine target is not statically resolvable: spawn a named same-package function tied to a WaitGroup, done channel, or context")
				return true
			}
			if !shutdownTied(pass, body) {
				pass.Reportf(g.Pos(),
					"goroutine is not tied to a shutdown path: reference a WaitGroup, done channel, or context in its body")
			}
			return true
		})
	}
	return nil
}

// spawnedBody resolves the body a `go` statement will run: the literal
// itself, or the declaration of a same-package function/method.
func spawnedBody(pass *Pass, graph *callGraph, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
		if fd, ok := graph.decls[fn]; ok {
			return fd.Body
		}
	}
	return nil
}

// shutdownTied reports whether a goroutine body references a shutdown
// signal.
func shutdownTied(pass *Pass, body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			tied = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				tied = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					tied = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					tied = true
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if isWaitGroupMethod(pass, sel) {
					tied = true
				}
			}
		case *ast.Ident:
			if t := pass.TypesInfo.TypeOf(n); t != nil && isContextType(t) {
				tied = true
			}
		}
		return !tied
	})
	return tied
}

// isWaitGroupMethod recognizes recv.Done/Wait/Add on sync.WaitGroup.
func isWaitGroupMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Done", "Wait", "Add":
	default:
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
