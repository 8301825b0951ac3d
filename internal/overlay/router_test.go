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

// slots is the router's whole per-pair footprint.
func (r *Router) slots() (n int) {
	for i := range r.rows {
		n += len(r.rows[i].slots)
	}
	return n
}

// The router is the overlay's routing, memoized: same next hop and same
// hop count for every pair, on both overlays, from one node to
// thousands — asked twice, so the second answer comes from the table.
func TestRouterMatchesOverlay(t *testing.T) {
	for _, kind := range []string{"pastry", "chord"} {
		for _, k := range []int{1, 2, 64, 5000} {
			ov := buildOverlay(t, kind, k)
			r := NewRouter(ov)
			rng := xrand.New(uint64(k))
			for s := 0; s < 2000; s++ {
				from, dst := rng.Intn(k), rng.Intn(k)
				want, err := Hops(ov, from, ov.NodeID(dst))
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					if got, want := r.NextHop(from, dst), ov.NextHop(from, ov.NodeID(dst)); got != want {
						t.Fatalf("%s K=%d pass %d: NextHop(%d, %d) = %d, overlay says %d", kind, k, pass, from, dst, got, want)
					}
					if got := r.Hops(from, dst); got != want {
						t.Fatalf("%s K=%d pass %d: Hops(%d, %d) = %d, overlay says %d", kind, k, pass, from, dst, got, want)
					}
				}
			}
		}
	}
}

// Storage follows the pairs routed, not the node count: P routes of at
// most h hops touch at most P·(h+1) (node, destination) pairs, and a
// table is never more than 8 slots or 4× its entries.
func TestRouterStorageFollowsRoutedPairs(t *testing.T) {
	const k, pairs = 20000, 200
	ov := buildOverlay(t, "pastry", k)
	r := NewRouter(ov)
	rng := xrand.New(7)
	touched := 0
	for s := 0; s < pairs; s++ {
		from, dst := rng.Intn(k), rng.Intn(k)
		touched += r.Hops(from, dst) + 1
	}
	if got, limit := r.slots(), 8*touched; got > limit {
		t.Fatalf("%d routed pairs over %d hops hold %d slots, want at most %d (K = %d)", pairs, touched, got, limit, k)
	}
	if r.slots() >= k {
		t.Fatalf("router holds %d slots for %d pairs: that is a row per node", r.slots(), pairs)
	}
}

func TestRouterPanicsOnCyclicOverlay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cyclic route not detected")
		}
	}()
	NewRouter(&loopNet{lineNet{n: 3}}).Hops(0, 1)
}
