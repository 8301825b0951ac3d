package overlay

import (
	"fmt"
	"testing"

	"p2prank/internal/chord"
	"p2prank/internal/nodeid"
	"p2prank/internal/pastry"
	"p2prank/internal/xrand"
)

func buildOverlay(t *testing.T, kind string, k int) Network {
	t.Helper()
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("router-test-%d", i))
	}
	var (
		ov  Network
		err error
	)
	if kind == "pastry" {
		ov, err = pastry.New(ids)
	} else {
		ov, err = chord.New(ids)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

// Hops walks the route Route stores: one hop fewer than the path's
// nodes for every pair, on both overlays, from one node to thousands.
func TestHopsMatchesRoute(t *testing.T) {
	for _, kind := range []string{"pastry", "chord"} {
		for _, k := range []int{1, 2, 64, 5000} {
			ov := buildOverlay(t, kind, k)
			rng := xrand.New(uint64(k))
			for s := 0; s < 2000; s++ {
				from, dst := rng.Intn(k), rng.Intn(k)
				path, err := Route(ov, from, ov.NodeID(dst))
				if err != nil {
					t.Fatal(err)
				}
				h, err := Hops(ov, from, ov.NodeID(dst))
				if err != nil {
					t.Fatal(err)
				}
				if h != len(path)-1 {
					t.Fatalf("%s K=%d: Hops(%d, %d) = %d, route %v", kind, k, from, dst, h, path)
				}
			}
		}
	}
}

// Hops stores no path: walking a route over a Pastry ring allocates
// nothing.
func TestHopsAllocatesNothing(t *testing.T) {
	const k = 2000
	ov := buildOverlay(t, "pastry", k)
	rng := xrand.New(5)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Hops(ov, rng.Intn(k), ov.NodeID(rng.Intn(k))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Hops allocates %v times per route, want 0", allocs)
	}
}

// A route that cycles is a broken routing table: Hops refuses it, as
// Route does.
func TestHopsDetectsLoops(t *testing.T) {
	if _, err := Hops(&loopNet{lineNet{n: 3}}, 0, nodeid.ID{Lo: 1}); err == nil {
		t.Fatal("cyclic route not detected")
	}
}
