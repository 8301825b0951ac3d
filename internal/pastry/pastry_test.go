package pastry

import (
	"fmt"
	"math"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/xrand"
)

var _ overlay.Network = (*Overlay)(nil)

func makeIDs(n int) []nodeid.ID {
	ids := make([]nodeid.ID, n)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	return ids
}

func newOverlay(t testing.TB, n int) *Overlay {
	t.Helper()
	o, err := New(makeIDs(n))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func randKeys(n int, seed uint64) []nodeid.ID {
	r := xrand.New(seed)
	keys := make([]nodeid.ID, n)
	for i := range keys {
		keys[i] = nodeid.ID{Hi: r.Uint64(), Lo: r.Uint64()}
	}
	return keys
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty membership accepted")
	}
	ids := makeIDs(3)
	ids[2] = ids[0]
	if _, err := New(ids); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestOwnerIsNumericallyClosest(t *testing.T) {
	o := newOverlay(t, 64)
	for _, key := range randKeys(200, 3) {
		got := o.Owner(key)
		best := 0
		for i := 1; i < o.NumNodes(); i++ {
			d := nodeid.AbsDist(o.NodeID(i), key)
			bd := nodeid.AbsDist(o.NodeID(best), key)
			if c := d.Cmp(bd); c < 0 || (c == 0 && o.NodeID(i).Cmp(o.NodeID(best)) < 0) {
				best = i
			}
		}
		if got != best {
			t.Fatalf("Owner(%s) = %d, brute force says %d", key, got, best)
		}
	}
}

func TestRoutingConvergesEverywhere(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 50, 200} {
		o := newOverlay(t, n)
		if err := overlay.CheckConvergent(o, randKeys(40, uint64(n))); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestOwnerIsFixedPoint(t *testing.T) {
	o := newOverlay(t, 100)
	for _, key := range randKeys(100, 5) {
		own := o.Owner(key)
		if next := o.NextHop(own, key); next != own {
			t.Fatalf("owner %d forwarded key %s to %d", own, key, next)
		}
	}
}

func TestHopCountsLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: builds a 1000-node overlay")
	}
	o := newOverlay(t, 1000)
	rng := xrand.New(11)
	h, err := overlay.AvgHops(o, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// log₁₆(1000) ≈ 2.49; Pastry's reported figure is ~2.5. Leaf sets
	// shave a little, so accept a band around it.
	if h < 1.6 || h > 3.2 {
		t.Fatalf("avg hops at N=1000 = %v, want ≈2.5", h)
	}
	small := newOverlay(t, 50)
	hs, err := overlay.AvgHops(small, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hs >= h {
		t.Fatalf("hops did not grow with N: %v (N=50) vs %v (N=1000)", hs, h)
	}
}

func TestNeighborsWellFormed(t *testing.T) {
	o := newOverlay(t, 120)
	for i := 0; i < o.NumNodes(); i++ {
		ns := o.Neighbors(i)
		if len(ns) == 0 {
			t.Fatalf("node %d has no neighbors", i)
		}
		for k, c := range ns {
			if c == i {
				t.Fatalf("node %d lists itself", i)
			}
			if k > 0 && ns[k-1] >= c {
				t.Fatalf("node %d neighbors unsorted or duplicated: %v", i, ns)
			}
		}
	}
}

func TestNeighborCountLogarithmic(t *testing.T) {
	// "In P2P networks one node commonly has roughly some dozens of
	// neighbors" (§4.4). For N=200 at b=4 the leaf set (16) plus a few
	// populated table rows should land in the dozens, far below N.
	o := newOverlay(t, 200)
	total := 0
	for i := 0; i < o.NumNodes(); i++ {
		total += len(o.Neighbors(i))
	}
	g := float64(total) / float64(o.NumNodes())
	if g < 10 || g > 80 {
		t.Fatalf("mean neighbor count %v, want a few dozen", g)
	}
}

// Every node owns its own ID, so a route toward another node's ID never
// ends early: the transport fabric and indirect-mode peers forward a
// chunk addressed elsewhere without asking whether it has arrived.
func TestEveryNodeOwnsItsOwnID(t *testing.T) {
	o := newOverlay(t, 60)
	for i := 0; i < o.NumNodes(); i++ {
		if own := o.Owner(o.NodeID(i)); own != i {
			t.Fatalf("Owner(NodeID(%d)) = %d", i, own)
		}
		for j := 0; j < o.NumNodes(); j++ {
			if j != i && o.NextHop(j, o.NodeID(i)) == j {
				t.Fatalf("route from %d toward node %d ends at %d", j, i, j)
			}
		}
	}
}

func TestSingleton(t *testing.T) {
	o := newOverlay(t, 1)
	key := randKeys(1, 19)[0]
	if o.Owner(key) != 0 {
		t.Fatal("singleton does not own everything")
	}
	if o.NextHop(0, key) != 0 {
		t.Fatal("singleton forwards")
	}
	if len(o.Neighbors(0)) != 0 {
		t.Fatal("singleton has neighbors")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := newOverlay(t, 80)
	b := newOverlay(t, 80)
	key := randKeys(1, 23)[0]
	for i := 0; i < 80; i++ {
		if a.NextHop(i, key) != b.NextHop(i, key) {
			t.Fatalf("construction nondeterministic at node %d", i)
		}
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("neighbor sets differ at node %d", i)
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Fatalf("neighbor sets differ at node %d", i)
			}
		}
	}
}

// Routes should shorten as they progress: each hop's distance to the key
// never increases beyond the previous hop's (prefix match grows or
// numeric distance shrinks). We verify the weaker, observable property
// that routes are loop-free and bounded.
func TestRoutesLoopFree(t *testing.T) {
	o := newOverlay(t, 300)
	bound := 10 // generous for log₁₆(300) ≈ 2.1
	for _, key := range randKeys(200, 29) {
		p, err := overlay.Route(o, 0, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) > bound {
			t.Fatalf("route of %d hops for key %s", len(p)-1, key)
		}
		seen := map[int]bool{}
		for _, n := range p {
			if seen[n] {
				t.Fatalf("loop in route %v", p)
			}
			seen[n] = true
		}
	}
}

func TestAvgHopsMatchesPaperScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: builds large overlays")
	}
	rng := xrand.New(31)
	// The paper quotes h ≈ 2.5 / 3.5 / 4.0 at N = 10³/10⁴/10⁵. Testing
	// 10⁵ is too slow here; check the 10³ → 10⁴ increment ≈ +0.8 (one
	// base-16 digit).
	o1 := newOverlay(t, 1000)
	h1, err := overlay.AvgHops(o1, 1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	o2 := newOverlay(t, 10000)
	h2, err := overlay.AvgHops(o2, 1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := h2 - h1; math.Abs(d-0.83) > 0.45 {
		t.Fatalf("hop growth from 10³ to 10⁴ nodes = %v, want ≈0.83", d)
	}
}

func BenchmarkBuild1000(b *testing.B) {
	ids := makeIDs(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPastryHops(b *testing.B) {
	// Regenerates the Pastry hop-count row feeding Table 1: reports
	// avg hops at N=1000 as a custom metric.
	o := newOverlay(b, 1000)
	rng := xrand.New(1)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		h, err := overlay.AvgHops(o, 100, rng)
		if err != nil {
			b.Fatal(err)
		}
		sum += h
	}
	b.ReportMetric(sum/float64(b.N), "hops/lookup")
}
