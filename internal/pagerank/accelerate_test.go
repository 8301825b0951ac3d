package pagerank

import (
	"testing"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

func TestAcceleratedMatchesPlain(t *testing.T) {
	g := genGraph(t, 3000, 31)
	opt := Defaults()
	plain, err := Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	accel, err := OpenAccelerated(g, opt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if re := vecmath.RelErr1(accel.Ranks, plain.Ranks); re > 1e-8 {
		t.Fatalf("accelerated ranks differ by %v", re)
	}
}

func TestAcceleratedSavesIterations(t *testing.T) {
	// Slow-mixing workload: high α and no external heterogeneity would
	// still decay at α·f_int; use a harder instance via larger alpha.
	cfg := webgraph.DefaultGenConfig(4000)
	cfg.Seed = 33
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := Defaults()
	opt.Alpha = 0.95
	opt.Epsilon = 1e-10
	plain, err := Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	accel, err := OpenAccelerated(g, opt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if accel.Iterations >= plain.Iterations {
		t.Fatalf("extrapolation did not help: %d vs %d iterations",
			accel.Iterations, plain.Iterations)
	}
	if re := vecmath.RelErr1(accel.Ranks, plain.Ranks); re > 1e-7 {
		t.Fatalf("accelerated ranks differ by %v", re)
	}
}

func TestAcceleratedValidation(t *testing.T) {
	g := genGraph(t, 200, 1)
	if _, err := OpenAccelerated(g, Defaults(), 2); err == nil {
		t.Error("period 2 accepted")
	}
	bad := Defaults()
	bad.Alpha = 0
	if _, err := OpenAccelerated(g, bad, 5); err == nil {
		t.Error("bad alpha accepted")
	}
}

func TestAcceleratedEmptyGraph(t *testing.T) {
	var b webgraph.Builder
	g := b.Build()
	res, err := OpenAccelerated(g, Defaults(), 5)
	if err != nil || !res.Converged {
		t.Fatalf("empty graph: %v", err)
	}
}

func BenchmarkOpenAccelerated10k(b *testing.B) {
	cfg := webgraph.DefaultGenConfig(10000)
	g, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := Defaults()
	opt.Alpha = 0.95
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenAccelerated(g, opt, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// The safeguards make extrapolation never much worse than the plain
// iteration, across varied workloads.
func TestAcceleratedNeverMuchWorse(t *testing.T) {
	for _, tc := range []struct {
		pages int
		sites int
		alpha float64
		seed  uint64
	}{
		{3000, 4, 0.85, 1},
		{3000, 50, 0.95, 2},
		{5000, 20, 0.9, 3},
		{2000, 10, 0.99, 4},
	} {
		cfg := webgraph.DefaultGenConfig(tc.pages)
		cfg.Sites = tc.sites
		cfg.Seed = tc.seed
		g, err := webgraph.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := Defaults()
		opt.Alpha = tc.alpha
		plain, err := Open(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		accel, err := OpenAccelerated(g, opt, 5)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if float64(accel.Iterations) > float64(plain.Iterations)*1.3+10 {
			t.Errorf("%+v: accelerated %d iterations vs plain %d", tc, accel.Iterations, plain.Iterations)
		}
		if re := vecmath.RelErr1(accel.Ranks, plain.Ranks); re > 1e-7 {
			t.Errorf("%+v: ranks differ by %v", tc, re)
		}
	}
}
