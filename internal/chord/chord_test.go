package chord

import (
	"fmt"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/xrand"
)

var _ overlay.Network = (*Overlay)(nil)

func makeIDs(n int) []nodeid.ID {
	ids := make([]nodeid.ID, n)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("chord-node-%d", i))
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
	ids[1] = ids[2]
	if _, err := New(ids); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestOwnerIsSuccessor(t *testing.T) {
	o := newOverlay(t, 64)
	for _, key := range randKeys(200, 3) {
		got := o.Owner(key)
		// Brute force: the node with the smallest clockwise
		// distance from key.
		best := 0
		for i := 1; i < o.NumNodes(); i++ {
			if nodeid.Distance(key, o.NodeID(i)).Cmp(nodeid.Distance(key, o.NodeID(best))) < 0 {
				best = i
			}
		}
		if got != best {
			t.Fatalf("Owner(%s) = %d, brute force successor is %d", key, got, best)
		}
	}
}

func TestRoutingConvergesEverywhere(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9, 33, 150} {
		o := newOverlay(t, n)
		if err := overlay.CheckConvergent(o, randKeys(40, uint64(n))); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestOwnerIsFixedPoint(t *testing.T) {
	o := newOverlay(t, 90)
	for _, key := range randKeys(100, 7) {
		own := o.Owner(key)
		if next := o.NextHop(own, key); next != own {
			t.Fatalf("owner %d forwarded key %s to %d", own, key, next)
		}
	}
}

func TestHopsGrowLogarithmically(t *testing.T) {
	rng := xrand.New(5)
	small := newOverlay(t, 32)
	big := newOverlay(t, 512)
	hs, err := overlay.AvgHops(small, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := overlay.AvgHops(big, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hb <= hs {
		t.Fatalf("hops did not grow: %v (N=32) vs %v (N=512)", hs, hb)
	}
	// ~½log₂N: ≈2.5 at N=32, ≈4.5 at N=512.
	if hb > 7 {
		t.Fatalf("N=512 hops = %v, want ≈4.5", hb)
	}
}

func TestChordSlowerThanPastryWouldBe(t *testing.T) {
	// ½·log₂(1000) ≈ 5 > log₁₆(1000) ≈ 2.5 — Chord takes more hops
	// than Pastry at the same N; this pins the Chord side.
	if testing.Short() {
		t.Skip("slow")
	}
	o := newOverlay(t, 1000)
	h, err := overlay.AvgHops(o, 1500, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if h < 3.5 || h > 7 {
		t.Fatalf("Chord N=1000 hops = %v, want ≈5", h)
	}
}

func TestNeighborsWellFormed(t *testing.T) {
	o := newOverlay(t, 100)
	for i := 0; i < o.NumNodes(); i++ {
		ns := o.Neighbors(i)
		if len(ns) == 0 {
			t.Fatalf("node %d has no neighbors", i)
		}
		for k, c := range ns {
			if c == i {
				t.Fatalf("node %d bad neighbor %d", i, c)
			}
			if k > 0 && ns[k-1] >= c {
				t.Fatalf("node %d neighbors unsorted: %v", i, ns)
			}
		}
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
	key := randKeys(1, 17)[0]
	if o.Owner(key) != 0 || o.NextHop(0, key) != 0 {
		t.Fatal("singleton routing wrong")
	}
	if len(o.Neighbors(0)) != 0 {
		t.Fatal("singleton has neighbors")
	}
}

func TestRoutesLoopFree(t *testing.T) {
	o := newOverlay(t, 250)
	for _, key := range randKeys(150, 21) {
		p, err := overlay.Route(o, 5, key)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, n := range p {
			if seen[n] {
				t.Fatalf("loop in route %v", p)
			}
			seen[n] = true
		}
		if len(p) > 15 {
			t.Fatalf("route too long: %d hops", len(p)-1)
		}
	}
}

func BenchmarkBuild500(b *testing.B) {
	ids := makeIDs(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(ids); err != nil {
			b.Fatal(err)
		}
	}
}
