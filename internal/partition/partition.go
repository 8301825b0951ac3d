// Package partition divides crawled pages among the K page rankers,
// implementing the three strategies of §4.1:
//
//   - BySite: hash the page's site hostname onto the overlay keyspace and
//     assign the page to the ranker owning that key. Deterministic under
//     recrawls, and because ~90% of links are intra-site it keeps most
//     rank flow local — the strategy the paper recommends.
//   - ByPage: hash the page URL. Deterministic but splits sites, so far
//     more rank crosses ranker boundaries.
//   - Random: uniform random assignment. The paper rejects it because a
//     recrawled page can land on a different ranker; it is implemented as
//     the baseline its argument is measured against.
package partition

import (
	"fmt"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/par"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// Strategy selects how pages map onto rankers.
type Strategy int

const (
	// BySite hashes the site hostname (recommended, §4.1).
	BySite Strategy = iota
	// ByPage hashes the page URL.
	ByPage
	// Random assigns uniformly at random (the rejected baseline).
	Random
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case BySite:
		return "by-site"
	case ByPage:
		return "by-page"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Assignment is the result of partitioning: every page mapped to a
// ranker (its page group) with a dense local index inside that group.
type Assignment struct {
	// K is the number of rankers (groups).
	K int
	// GroupOf maps a page to its ranker index.
	GroupOf []int32
	// LocalIdx maps a page to its index within its group's page list.
	LocalIdx []int32
	// Pages lists each group's pages in ascending global order.
	Pages [][]int32
}

// hashBlock is the number of pages one by-page hashing shard covers.
const hashBlock = 2048

// Assign partitions the pages of g over the rankers of the overlay ov
// using the given strategy. seed is used only by Random. The hashing
// strategies place a page on the overlay owner of its hash key, exactly
// how a DHT-based search engine would resolve storage responsibility.
func Assign(g *webgraph.Graph, ov overlay.Network, strat Strategy, seed uint64) (*Assignment, error) {
	k := ov.NumNodes()
	if k == 0 {
		return nil, fmt.Errorf("partition: overlay has no nodes")
	}
	a := &Assignment{
		K:        k,
		GroupOf:  make([]int32, g.NumPages()),
		LocalIdx: make([]int32, g.NumPages()),
		Pages:    make([][]int32, k),
	}
	switch strat {
	case BySite:
		// All pages of a site share a key: hash once per site.
		siteOwner := make([]int32, g.NumSites())
		for s := range siteOwner {
			siteOwner[s] = int32(ov.Owner(nodeid.Hash(g.SiteHost(int32(s)))))
		}
		for p := range a.GroupOf {
			a.GroupOf[p] = siteOwner[g.SiteOf(int32(p))]
		}
	case ByPage:
		// Hashing is most of the work, so fixed spans of pages hash on
		// the worker pool. The spans depend only on the page count and
		// each writes only its own pages' GroupOf, so the result is the
		// serial one at any worker count.
		n := len(a.GroupOf)
		par.Default().Run(par.Blocks(n, hashBlock), func(b int) {
			var buf [64]byte
			for p := b * hashBlock; p < min(n, (b+1)*hashBlock); p++ {
				url := webgraph.AppendURL(buf[:0], g, int32(p))
				a.GroupOf[p] = int32(ov.Owner(nodeid.HashBytes(url)))
			}
		})
	case Random:
		rng := xrand.New(seed)
		for p := range a.GroupOf {
			a.GroupOf[p] = int32(rng.Intn(k))
		}
	default:
		return nil, fmt.Errorf("partition: unknown strategy %d", int(strat))
	}
	for p, grp := range a.GroupOf {
		a.LocalIdx[p] = int32(len(a.Pages[grp]))
		a.Pages[grp] = append(a.Pages[grp], int32(p))
	}
	return a, nil
}

// CutStats quantifies a partition: how many internal links cross group
// boundaries (each crossing link forces rank transmission between
// rankers) and how balanced the groups are.
type CutStats struct {
	IntraGroupLinks int64
	InterGroupLinks int64
	MaxPages        int
	MinPages        int
	EmptyGroups     int
}

// CutFrac returns the fraction of internal links that cross group
// boundaries.
func (c CutStats) CutFrac() float64 {
	total := c.IntraGroupLinks + c.InterGroupLinks
	if total == 0 {
		return 0
	}
	return float64(c.InterGroupLinks) / float64(total)
}

// Cut measures the partition against the graph's internal links.
func Cut(g *webgraph.Graph, a *Assignment) CutStats {
	var c CutStats
	for p := 0; p < g.NumPages(); p++ {
		u := int32(p)
		for _, v := range g.InternalOut(u) {
			if a.GroupOf[u] == a.GroupOf[v] {
				c.IntraGroupLinks++
			} else {
				c.InterGroupLinks++
			}
		}
	}
	c.MinPages = g.NumPages() + 1
	for _, ps := range a.Pages {
		if len(ps) > c.MaxPages {
			c.MaxPages = len(ps)
		}
		if len(ps) < c.MinPages {
			c.MinPages = len(ps)
		}
		if len(ps) == 0 {
			c.EmptyGroups++
		}
	}
	if len(a.Pages) == 0 {
		c.MinPages = 0
	}
	return c
}
