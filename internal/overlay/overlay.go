// Package overlay defines the surface the distributed page-ranking layer
// consumes from a structured P2P network, and helpers shared by the
// Pastry and Chord implementations.
//
// The paper uses the overlay for exactly three things: mapping a key
// (page-group hash) to the responsible page ranker, looking up the
// address of a destination ranker (direct transmission, Figure 3B), and
// walking neighbor links hop by hop (indirect transmission, Figures 4–5).
// Network captures that surface — five methods — so DPR code is
// overlay-agnostic. Membership is fixed when an overlay is built: a
// ranker that sleeps or restarts does so as a host and keeps its place on
// the ring, so nothing here asks whether a node is live.
package overlay

import (
	"fmt"

	"p2prank/internal/nodeid"
	"p2prank/internal/xrand"
)

// Network is a structured overlay over a fixed set of member nodes,
// addressed by dense indices 0..NumNodes()-1. Implementations must be
// deterministic: the same membership yields the same routes. They are
// immutable once built and safe for concurrent use, so every ranker,
// relay and querier routes through one Network without a lock or a
// cache of its own.
type Network interface {
	// NumNodes returns the number of member nodes.
	NumNodes() int
	// NodeID returns the ring identifier of node i.
	NodeID(i int) nodeid.ID
	// Owner returns the node responsible for key.
	Owner(key nodeid.ID) int
	// NextHop returns the next node on the route from node i toward
	// the owner of key. It returns i itself when i is the owner.
	NextHop(i int, key nodeid.ID) int
	// Neighbors returns the overlay links of node i — the nodes it can
	// reach in one hop (leaf set and routing table for Pastry,
	// successors and fingers for Chord). The result is sorted and
	// contains no duplicates or i itself.
	Neighbors(i int) []int
}

// maxRouteHops is where a route is declared cyclic. It is generous:
// honest overlays need O(log N) hops.
const maxRouteHops = 4 * 64

// Route returns the full node path from node i to the owner of key,
// starting with i and ending with the owner. It fails if the overlay
// routes in a cycle or takes implausibly many hops, which would indicate
// a broken routing table.
func Route(n Network, from int, key nodeid.ID) ([]int, error) {
	path := []int{from}
	cur := from
	for hop := 0; ; hop++ {
		next := n.NextHop(cur, key)
		if next == cur {
			return path, nil
		}
		if hop >= maxRouteHops {
			return nil, fmt.Errorf("overlay: route from %d to %s exceeded %d hops", from, key, maxRouteHops)
		}
		path = append(path, next)
		cur = next
	}
}

// Hops returns the number of overlay hops from node i to the owner of
// key (0 when i is the owner), walking the route without storing it. It
// fails where Route does.
//
//p2plint:hotpath -- telemetry's hop attribution, once per chunk sent
func Hops(n Network, from int, key nodeid.ID) (int, error) {
	for cur, h := from, 0; ; h++ {
		next := n.NextHop(cur, key)
		if next == cur {
			return h, nil
		}
		if h >= maxRouteHops {
			return 0, fmt.Errorf("overlay: route from %d to %s exceeded %d hops", from, key, maxRouteHops)
		}
		cur = next
	}
}

// AvgHops estimates the mean lookup hop count by routing `samples`
// random keys from random source nodes. This is the h that enters
// the paper's formulas 4.1–4.4 and Table 1.
func AvgHops(n Network, samples int, rng *xrand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("overlay: AvgHops needs positive samples, got %d", samples)
	}
	if n.NumNodes() == 0 {
		return 0, fmt.Errorf("overlay: no nodes")
	}
	total := 0
	for s := 0; s < samples; s++ {
		from := rng.Intn(n.NumNodes())
		key := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		h, err := Hops(n, from, key)
		if err != nil {
			return 0, err
		}
		total += h
	}
	return float64(total) / float64(samples), nil
}

// CheckConvergent verifies that routing from every node reaches the
// owner for each of the given keys — the integration-level sanity check
// used in tests.
func CheckConvergent(n Network, keys []nodeid.ID) error {
	for _, key := range keys {
		want := n.Owner(key)
		for i := 0; i < n.NumNodes(); i++ {
			p, err := Route(n, i, key)
			if err != nil {
				return err
			}
			if got := p[len(p)-1]; got != want {
				return fmt.Errorf("overlay: route from %d for key %s ended at %d, owner is %d",
					i, key, got, want)
			}
		}
	}
	return nil
}
