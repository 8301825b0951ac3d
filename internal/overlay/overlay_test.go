package overlay

import (
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/xrand"
)

// lineNet is a toy overlay: nodes 0..n-1 in a line, key owned by node
// (key.Lo mod n), routed one step at a time toward the owner. It
// exercises the package helpers without pulling in a real overlay.
type lineNet struct{ n int }

func (l *lineNet) NumNodes() int          { return l.n }
func (l *lineNet) NodeID(i int) nodeid.ID { return nodeid.ID{Lo: uint64(i)} }
func (l *lineNet) Owner(k nodeid.ID) int  { return int(k.Lo % uint64(l.n)) }
func (l *lineNet) Neighbors(i int) []int {
	var ns []int
	if i > 0 {
		ns = append(ns, i-1)
	}
	if i < l.n-1 {
		ns = append(ns, i+1)
	}
	return ns
}
func (l *lineNet) NextHop(i int, k nodeid.ID) int {
	own := l.Owner(k)
	switch {
	case own == i:
		return i
	case own > i:
		return i + 1
	default:
		return i - 1
	}
}

// loopNet always forwards to the other node, never terminating.
type loopNet struct{ lineNet }

func (l *loopNet) NextHop(i int, k nodeid.ID) int { return (i + 1) % l.n }

func TestRoutePath(t *testing.T) {
	l := &lineNet{n: 10}
	p, err := Route(l, 2, nodeid.ID{Lo: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 4, 5, 6, 7}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	l := &lineNet{n: 5}
	p, err := Route(l, 3, nodeid.ID{Lo: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0] != 3 {
		t.Fatalf("self-route path = %v", p)
	}
	h, err := Hops(l, 3, nodeid.ID{Lo: 3})
	if err != nil || h != 0 {
		t.Fatalf("self hops = %d, %v", h, err)
	}
}

func TestRouteDetectsLoops(t *testing.T) {
	l := &loopNet{lineNet{n: 3}}
	if _, err := Route(l, 0, nodeid.ID{Lo: 1}); err == nil {
		t.Fatal("cyclic route not detected")
	}
}

func TestHops(t *testing.T) {
	l := &lineNet{n: 10}
	h, err := Hops(l, 1, nodeid.ID{Lo: 8})
	if err != nil {
		t.Fatal(err)
	}
	if h != 7 {
		t.Fatalf("hops = %d, want 7", h)
	}
}

func TestAvgHopsValidation(t *testing.T) {
	l := &lineNet{n: 5}
	if _, err := AvgHops(l, 0, xrand.New(1)); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := AvgHops(&lineNet{}, 10, xrand.New(1)); err == nil {
		t.Error("empty overlay accepted")
	}
}

func TestAvgHopsRange(t *testing.T) {
	l := &lineNet{n: 10}
	h, err := AvgHops(l, 3000, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Uniform src and dst on a 10-node line: mean distance = 3.3.
	if h < 2.5 || h > 4.1 {
		t.Fatalf("avg hops = %v, want ≈3.3", h)
	}
}

func TestCheckConvergent(t *testing.T) {
	if err := CheckConvergent(&lineNet{n: 6}, []nodeid.ID{{Lo: 2}, {Lo: 5}}); err != nil {
		t.Fatalf("line net flagged: %v", err)
	}
	if err := CheckConvergent(&loopNet{lineNet{n: 3}}, []nodeid.ID{{Lo: 1}}); err == nil {
		t.Fatal("loop net passed convergence check")
	}
}
