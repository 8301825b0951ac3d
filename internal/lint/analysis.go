// Package lint is a self-contained static-analysis framework plus the
// project's analyzers. It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a Run function that
// inspects one type-checked package through a Pass — but is built
// entirely on the standard library (go/ast, go/types, go list) so the
// module stays dependency-free.
//
// The analyzers enforce the invariants that make the paper's
// experiments reproducible:
//
//   - norand: all randomness flows through the seeded internal/xrand
//     streams; direct math/rand imports are forbidden outside xrand.
//   - nowallclock: simulation-path packages (simnet, engine, dprcore,
//     experiments, par, telemetry, webgraph) never read the wall clock;
//     sim time comes from the simnet virtual clock.
//   - floateq: rank values are never compared with ==/!= in the
//     floating-point packages (pagerank, vecmath, engine);
//     comparisons must be epsilon-based or explicitly annotated.
//   - senderr: results of Send/Flush emit paths are never silently
//     discarded; failures must be propagated, logged, or counted.
//   - maporder: range-over-map in determinism-critical packages may not
//     have order-dependent effects (sends, ordered appends, FP
//     accumulation, telemetry); iterate a sorted key slice instead.
//   - hotalloc: //p2plint:hotpath functions and their same-package
//     callees contain no allocation sites (make/new, literals,
//     closures, undisciplined append, interface boxing).
//   - lockscope: no blocking call (send, net I/O, channel op, Wait)
//     while a mutex is held in the socket-facing packages.
//   - gorolife: every `go` statement in netpeer is tied to a shutdown
//     path (WaitGroup, done channel, or context).
//
// An intentional exception is annotated at the offending line (or the
// line above) with
//
//	//p2plint:allow <analyzer> -- <reason>
//
// which suppresses that analyzer's diagnostics for that line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one analysis: a name, a doc string, and a Run
// function applied to every package under analysis.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an analyzer, exactly
// like analysis.Pass: syntax, type information, and a Report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Report records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the project's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoRand, NoWallClock, FloatEq, SendErr, MapOrder, HotAlloc, LockScope, GoroLife}
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Diagnostics on lines carrying (or
// directly below) a matching //p2plint:allow directive are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allowed := allowDirectives(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			before := len(diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			diags = filterAllowed(diags, before, allowed)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// allowKey identifies one suppressed (file, line, analyzer) site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirectives collects //p2plint:allow directives: each one
// suppresses the named analyzers on its own line and the line below
// (so it can sit above the statement it excuses).
func allowDirectives(pkg *Package) map[allowKey]bool {
	allowed := make(map[allowKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "p2plint:allow") {
					continue
				}
				text = strings.TrimPrefix(text, "p2plint:allow")
				// Drop an optional "-- reason" trailer.
				if i := strings.Index(text, "--"); i >= 0 {
					text = text[:i]
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Fields(text) {
					allowed[allowKey{pos.Filename, pos.Line, name}] = true
					allowed[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return allowed
}

// filterAllowed drops diagnostics appended since index `from` whose
// (file, line, analyzer) matches a directive.
func filterAllowed(diags []Diagnostic, from int, allowed map[allowKey]bool) []Diagnostic {
	if len(allowed) == 0 {
		return diags
	}
	kept := diags[:from]
	for _, d := range diags[from:] {
		if allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// exprString renders an expression in canonical Go syntax — the key the
// flow analyzers use to match the same receiver or slice across
// statements.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// pathHasSuffix reports whether import path `path` is exactly `suffix`
// or ends with "/"+suffix — the way analyzers scope rules to packages
// without caring about the module prefix (which differs between the
// real tree and test fixtures).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
