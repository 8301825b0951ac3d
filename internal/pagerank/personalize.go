package pagerank

import (
	"fmt"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// TopicE builds a personalization vector for topic-sensitive PageRank
// (§3 notes the non-uniform-E case "can be used for personalized page
// ranking", citing Jeh & Widom and Haveliwala). Pages of the given
// sites receive `boost` units of rank source, all other pages
// `baseline`. With baseline 0 this is pure topic-restricted
// personalization; with baseline 1 it is the paper's uniform E plus a
// topical boost.
func TopicE(g *webgraph.Graph, sites []int32, boost, baseline float64) (vecmath.Vec, error) {
	if boost < 0 || baseline < 0 {
		return nil, fmt.Errorf("pagerank: negative personalization weights (%v, %v)", boost, baseline)
	}
	//p2plint:allow floateq -- exact-zero validation of user-supplied weights, not a computed-score comparison
	if boost == 0 && baseline == 0 {
		return nil, fmt.Errorf("pagerank: all-zero personalization vector")
	}
	inTopic := make(map[int32]bool, len(sites))
	for _, s := range sites {
		if s < 0 || int(s) >= g.NumSites() {
			return nil, fmt.Errorf("pagerank: site %d out of range (%d sites)", s, g.NumSites())
		}
		inTopic[s] = true
	}
	e := vecmath.NewVec(g.NumPages())
	for p := 0; p < g.NumPages(); p++ {
		if inTopic[g.SiteOf(int32(p))] {
			e[p] = boost
		} else {
			e[p] = baseline
		}
	}
	return e, nil
}

// SiteRankMass sums the ranks of each site's pages — a coarse
// per-site importance useful for inspecting personalization effects.
func SiteRankMass(g *webgraph.Graph, ranks vecmath.Vec) (vecmath.Vec, error) {
	if len(ranks) != g.NumPages() {
		return nil, fmt.Errorf("pagerank: rank vector has length %d, want %d", len(ranks), g.NumPages())
	}
	mass := vecmath.NewVec(g.NumSites())
	for p := 0; p < g.NumPages(); p++ {
		mass[g.SiteOf(int32(p))] += ranks[p]
	}
	return mass, nil
}
