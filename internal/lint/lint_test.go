package lint_test

import (
	"testing"

	"p2prank/internal/lint"
	"p2prank/internal/lint/linttest"
)

// Each analyzer runs over a violating fixture (want comments) and an
// exempt one (no diagnostics expected), proving both the rule and its
// scoping.

func TestNoRandFlagsDirectImports(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRand, "p2prank/internal/engine")
}

func TestNoRandExemptsXrand(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRand, "p2prank/internal/xrand")
}

func TestNoWallClockFlagsSimPackages(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoWallClock, "p2prank/internal/simnet")
}

func TestNoWallClockFlagsDprcore(t *testing.T) {
	// The loop core is sim-path: time enters only through its Clock
	// interface, randomness only through its RNG interface. The fixture
	// covers the plain loop shortcuts (clock.go), the recovery layer's
	// — retry deadlines, backoff jitter, supervisor probes (retry.go) —
	// and the fault lattice's — wall-clock partition windows, global-
	// rand straggler draws (fault.go) — so both analyzers run over the
	// package together.
	linttest.RunAll(t, "testdata",
		[]*lint.Analyzer{lint.NoWallClock, lint.NoRand},
		"p2prank/internal/dprcore")
}

func TestNoWallClockExemptsNetpeer(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoWallClock, "p2prank/internal/netpeer")
}

func TestNoWallClockFlagsPar(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoWallClock, "p2prank/internal/par")
}

func TestTelemetryScopedForNoWallClockAndNoRand(t *testing.T) {
	// The observability layer sits on the simulation path: collectors
	// timestamp events through the injected Clock and must not sample
	// with math/rand. One fixture exercises both rules.
	linttest.RunAll(t, "testdata",
		[]*lint.Analyzer{lint.NoWallClock, lint.NoRand},
		"p2prank/internal/telemetry")
}

func TestFloatEqFlagsRankMath(t *testing.T) {
	linttest.Run(t, "testdata", lint.FloatEq, "p2prank/internal/pagerank")
}

func TestWebgraphScopedForWallClockNotFloatEq(t *testing.T) {
	// Storage is seed-addressed: the same seed must serialize to the
	// same bytes, so nowallclock covers webgraph (wallclock.go), while
	// floateq still exempts it — generator-internal float comparisons
	// are not rank math (offscope.go). One package, both scopes.
	linttest.RunAll(t, "testdata",
		[]*lint.Analyzer{lint.NoWallClock, lint.FloatEq},
		"p2prank/internal/webgraph")
}

func TestSendErrFlagsDiscardedEmits(t *testing.T) {
	linttest.Run(t, "testdata", lint.SendErr, "p2prank/internal/transport")
}

// The v2 flow-aware analyzers use fixtures under testdata/src/fix/…:
// the path suffix still triggers package scoping (pathHasSuffix), while
// the fix/<analyzer> prefix keeps their want comments out of the
// original fixtures' directories.

func TestMapOrderFlagsUnsortedEffects(t *testing.T) {
	linttest.Run(t, "testdata", lint.MapOrder, "fix/maporder/internal/experiments")
}

func TestMapOrderExemptsOffScopePackages(t *testing.T) {
	// Same source as the violating fixture semantically, but under a
	// netpeer path: delivery order there is wall-clock nondeterministic
	// anyway, so maporder must stay silent.
	linttest.Run(t, "testdata", lint.MapOrder, "fix/maporder/internal/netpeer")
}

func TestHotAllocFlagsAllocationSites(t *testing.T) {
	linttest.Run(t, "testdata", lint.HotAlloc, "fix/hotalloc/internal/vecmath")
}

func TestHotAllocFlagsStorageAccessors(t *testing.T) {
	// The graph's per-page accessors are annotated hot: they run
	// millions of times per simulated round, so they must return
	// borrowed views of the mapped arrays, never copies.
	linttest.Run(t, "testdata", lint.HotAlloc, "fix/hotalloc/internal/webgraph")
}

func TestLockScopeFlagsBlockingUnderMutex(t *testing.T) {
	linttest.Run(t, "testdata", lint.LockScope, "fix/lockscope/internal/netpeer")
}

func TestGoroLifeFlagsUntiedGoroutines(t *testing.T) {
	linttest.Run(t, "testdata", lint.GoroLife, "fix/gorolife/internal/netpeer")
}

// TestLoadRealPackage exercises the go-list loader against the actual
// module: the returned package must carry type information.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/xrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "p2prank/internal/xrand" {
		t.Fatalf("path = %q", p.Path)
	}
	if p.Types == nil || p.Types.Scope().Lookup("Rand") == nil {
		t.Fatal("package not type-checked: xrand.Rand not found")
	}
	if len(p.Files) == 0 || p.Info == nil {
		t.Fatal("missing syntax or type info")
	}
}

// TestSuiteCleanOnOwnTree is the self-test CI relies on: the shipped
// analyzers must report nothing on the module itself (annotated
// exceptions aside). It type-checks the entire module, so it is the
// slowest test in the package.
func TestSuiteCleanOnOwnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern ./... should match the whole module", len(pkgs))
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("tree not clean: %s", d)
	}
}
