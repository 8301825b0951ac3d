package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"p2prank/internal/xrand"
)

func TestConstAndFill(t *testing.T) {
	x := Const(5, 2.5)
	for _, v := range x {
		if v != 2.5 {
			t.Fatalf("Const produced %v", x)
		}
	}
	x.Fill(-1)
	for _, v := range x {
		if v != -1 {
			t.Fatalf("Fill produced %v", x)
		}
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatalf("Zero produced %v", x)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	x := Vec{1, 2, 3}
	y := x.Clone()
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestSumMeanNorms(t *testing.T) {
	x := Vec{1, -2, 3}
	if got := x.Sum(); got != 2 {
		t.Errorf("Sum = %v", got)
	}
	if got := x.Mean(); math.Abs(got-2.0/3.0) > 1e-15 {
		t.Errorf("Mean = %v", got)
	}
	if got := x.Norm1(); got != 6 {
		t.Errorf("Norm1 = %v", got)
	}
	if got := x.NormInf(); got != 3 {
		t.Errorf("NormInf = %v", got)
	}
}

func TestEmptyVec(t *testing.T) {
	var x Vec
	if x.Mean() != 0 || x.Sum() != 0 || x.Norm1() != 0 || x.NormInf() != 0 {
		t.Fatal("empty vector stats not all zero")
	}
	if !math.IsInf(x.Min(), 1) || !math.IsInf(x.Max(), -1) {
		t.Fatal("empty Min/Max not infinite")
	}
}

func TestScaleAddAxpy(t *testing.T) {
	x := Vec{2, 4, 6}
	x.AddConst(1)
	if x[0] != 3 {
		t.Fatalf("AddConst: %v", x)
	}
	x.Add(Vec{1, 1, 1})
	if x[1] != 6 {
		t.Fatalf("Add: %v", x)
	}
	x.Axpy(-1, Vec{3, 6, 7})
	if x[0] != 1 || x[1] != 0 || x[2] != 1 {
		t.Fatalf("Axpy: %v", x)
	}
}

func TestDiffAndRelErr(t *testing.T) {
	x := Vec{1, 2, 3}
	y := Vec{1, 1, 5}
	if got := Diff1(x, y); got != 3 {
		t.Errorf("Diff1 = %v", got)
	}
	if got := RelErr1(x, y); math.Abs(got-3.0/7.0) > 1e-15 {
		t.Errorf("RelErr1 = %v", got)
	}
	if got := RelErr1(x, Vec{0, 0, 0}); got != 6 {
		t.Errorf("RelErr1 against zero = %v", got)
	}
}

func TestDominates(t *testing.T) {
	x := Vec{1, 2, 3}
	if !Dominates(x, Vec{1, 2, 3}, 0) {
		t.Error("x should dominate itself")
	}
	if !Dominates(x, Vec{0, 2, 2.5}, 0) {
		t.Error("x should dominate smaller vector")
	}
	if Dominates(x, Vec{2, 2, 3}, 0) {
		t.Error("x should not dominate larger vector")
	}
	if !Dominates(x, Vec{1 + 1e-12, 2, 3}, 1e-9) {
		t.Error("tolerance should absorb noise")
	}
}

func TestMinMax(t *testing.T) {
	x := Vec{3, -1, 2}
	if x.Min() != -1 || x.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v", x.Min(), x.Max())
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	x, y := Vec{1}, Vec{1, 2}
	for name, f := range map[string]func(){
		"Add":       func() { x.Add(y) },
		"Axpy":      func() { x.Axpy(1, y) },
		"Diff1":     func() { Diff1(x, y) },
		"Dominates": func() { Dominates(x, y, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on mismatch", name)
				}
			}()
			f()
		}()
	}
}

// Property: triangle inequality for Diff1.
func TestDiff1TriangleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(50)
		x, y, z := NewVec(n), NewVec(n), NewVec(n)
		for i := 0; i < n; i++ {
			x[i] = r.Float64()*20 - 10
			y[i] = r.Float64()*20 - 10
			z[i] = r.Float64()*20 - 10
		}
		return Diff1(x, z) <= Diff1(x, y)+Diff1(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ‖x‖∞ ≤ ‖x‖₁ ≤ n·‖x‖∞.
func TestNormOrderingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(50)
		x := NewVec(n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		n1, ni := x.Norm1(), x.NormInf()
		return ni <= n1+1e-12 && n1 <= float64(n)*ni+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopPages(t *testing.T) {
	ranks := Vec{0.1, 0.9, 0.5, 0.9}
	top := TopPages(ranks, 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("top = %v, want [1 3 2] (ties toward smaller index)", top)
	}
	if got := TopPages(ranks, 99); len(got) != 4 {
		t.Fatalf("oversized n returned %d entries", len(got))
	}
	if got := TopPages(nil, 3); len(got) != 0 {
		t.Fatalf("empty ranks returned %v", got)
	}
}
