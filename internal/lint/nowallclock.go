package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package-time functions that read or wait on
// the wall clock. Pure types and constructors (time.Duration,
// time.Millisecond, time.Date arithmetic on explicit values) stay
// legal: configs may be *expressed* in time.Duration even when the
// schedule runs on virtual time.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// simPathPackages are the packages whose results feed the paper's
// figures; they must be pure functions of seed and configuration, so
// time has to come from the simnet virtual clock (Simulator.Now /
// Simulator.After), never the host's. netpeer and cmd/ are deliberately
// exempt: real sockets run on real time.
var simPathPackages = []string{
	"internal/simnet",
	"internal/engine",
	// The runtime-agnostic DPR loop core: time and randomness may enter
	// only through its Clock/RNG interfaces, never directly — the wall
	// clock lives solely in the netpeer driver's Clock implementation.
	"internal/dprcore",
	"internal/experiments",
	// The worker pool under the parallel kernels and the compute-phase
	// executor: it must block on channels, never sleep or poll the
	// host clock, or virtual time would leak scheduling jitter.
	"internal/par",
	// The observability layer: collectors timestamp events with the
	// Clock injected by their runtime (the simnet virtual clock in-sim,
	// wall time only in the netpeer driver), so the in-sim traffic
	// tables stay pure functions of seed and configuration.
	"internal/telemetry",
	// Graph storage: generation, (de)serialization, and the mapped
	// store are seed-addressed and replayed inside experiments; a
	// wall-clock read here (say, a timestamp in the file header) would
	// make the same seed produce different bytes and break the
	// fingerprint goldens.
	"internal/webgraph",
}

// NoWallClock forbids wall-clock reads and waits in simulation-path
// packages.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "forbid time.Now/Sleep/After (and friends) in simulation-path packages; use the simnet clock",
	Run:  runNoWallClock,
}

func runNoWallClock(pass *Pass) error {
	scoped := false
	for _, suffix := range simPathPackages {
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
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			if wallClockFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock in simulation-path package %s: schedule on the simnet virtual clock instead",
					sel.Sel.Name, pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
