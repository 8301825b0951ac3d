// Package crawler simulates the incremental crawl that feeds a
// distributed search engine. The paper's setting assumes crawlers keep
// discovering and revisiting pages (§4.1 bases its partitioning
// argument on revisits, and §4.3 notes the link graph is dynamic in
// practice); this package produces the growing sequence of crawl
// snapshots that models it.
//
// A Crawler walks a fixed "true web" (any webgraph.Graph) in a seeded
// breadth-first order. At any point Snapshot materializes the crawled
// subset as its own open-system graph: links between crawled pages are
// internal, links to not-yet-crawled or truly external pages count as
// external — so a page's total out-degree d(u) is invariant across
// snapshots, exactly the property that keeps GroupPageRank's transition
// weights α/d(u) stable while the crawl grows.
//
// Snapshots preserve page identity: a crawled page keeps the site and
// local ordinal (hence the URL) it has in the true web, regardless of
// the order the crawler found it in. That is what makes hash-based
// partitioning deterministic across recrawls — the §4.1 claim the
// tests verify.
package crawler

import (
	"fmt"

	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// Crawler incrementally discovers the pages of a fixed web graph.
type Crawler struct {
	web     *webgraph.Graph
	rng     *xrand.Rand
	order   []int32 // pages in crawl order, filled as the frontier drains
	crawled map[int32]bool
	// frontier is a FIFO of discovered-but-uncrawled pages; seeds are
	// injected when it empties (disconnected webs).
	frontier []int32
	queued   map[int32]bool
	// seedPerm is the random order used to pick fresh seeds.
	seedPerm []int
	seedPos  int
}

// New returns a crawler over web whose visit order is determined by
// seed. Different seeds model different crawl runs discovering the same
// web in different orders.
func New(web *webgraph.Graph, seed uint64) (*Crawler, error) {
	if web == nil {
		return nil, fmt.Errorf("crawler: nil web")
	}
	rng := xrand.New(seed)
	return &Crawler{
		web:      web,
		rng:      rng,
		crawled:  make(map[int32]bool, web.NumPages()),
		queued:   make(map[int32]bool),
		seedPerm: rng.Perm(web.NumPages()),
	}, nil
}

// Crawled returns how many pages have been crawled.
func (c *Crawler) Crawled() int { return len(c.order) }

// Done reports whether every page of the web has been crawled.
func (c *Crawler) Done() bool { return len(c.order) == c.web.NumPages() }

// Crawl fetches up to n more pages (fewer if the web runs out) and
// returns how many it actually crawled.
func (c *Crawler) Crawl(n int) int {
	fetched := 0
	for fetched < n && !c.Done() {
		p, ok := c.nextPage()
		if !ok {
			break
		}
		c.crawled[p] = true
		c.order = append(c.order, p)
		fetched++
		// Discover out-links in shuffled order, modeling the crawler's
		// nondeterministic queue growth.
		out := c.web.InternalOut(p)
		perm := c.rng.Perm(len(out))
		for _, k := range perm {
			v := out[k]
			if !c.crawled[v] && !c.queued[v] {
				c.queued[v] = true
				c.frontier = append(c.frontier, v)
			}
		}
	}
	return fetched
}

// nextPage pops the frontier, injecting a fresh random seed when it is
// empty.
func (c *Crawler) nextPage() (int32, bool) {
	for len(c.frontier) > 0 {
		p := c.frontier[0]
		c.frontier = c.frontier[1:]
		delete(c.queued, p)
		if !c.crawled[p] {
			return p, true
		}
	}
	for c.seedPos < len(c.seedPerm) {
		p := int32(c.seedPerm[c.seedPos])
		c.seedPos++
		if !c.crawled[p] {
			return p, true
		}
	}
	return 0, false
}

// Snapshot materializes the crawled subset as a standalone graph, plus
// the mapping from snapshot page index to true-web page index.
// Page identity (site, local ordinal, URL) matches the true web.
func (c *Crawler) Snapshot() (*webgraph.Graph, []int32, error) {
	var b webgraph.Builder
	for s := 0; s < c.web.NumSites(); s++ {
		b.AddSite(c.web.SiteHost(int32(s)))
	}
	// Snapshot pages in true-web order so snapshots of the same crawl
	// set are identical regardless of discovery order.
	toWeb := make([]int32, 0, len(c.order))
	fromWeb := make(map[int32]int32, len(c.order))
	for p := 0; p < c.web.NumPages(); p++ {
		if c.crawled[int32(p)] {
			local := b.AddPage(c.web.SiteOf(int32(p)))
			fromWeb[int32(p)] = local
			toWeb = append(toWeb, int32(p))
		}
	}
	for _, wp := range toWeb {
		sp := fromWeb[wp]
		ext := int(c.web.ExtOut(wp)) // truly external links
		for _, v := range c.web.InternalOut(wp) {
			if dst, ok := fromWeb[v]; ok {
				if err := b.AddLink(sp, dst); err != nil {
					return nil, nil, err
				}
			} else {
				ext++ // link to a not-yet-crawled page
			}
		}
		if err := b.AddExternalLinks(sp, ext); err != nil {
			return nil, nil, err
		}
	}
	// Preserve true-web local ordinals so URLs are crawl-order
	// independent (see the package comment).
	for i, wp := range toWeb {
		if err := b.SetLocalID(int32(i), c.web.LocalID(wp)); err != nil {
			return nil, nil, err
		}
	}
	return b.Build(), toWeb, nil
}

// CarryOver maps the pages of a newer snapshot onto an older one: for
// each page of next (given by its true-web indices), the index of the
// same page in prev, or -1 if prev had not crawled it yet. This is the
// warm-start mapping engine.RunIncremental consumes.
func CarryOver(prevToWeb, nextToWeb []int32) []int32 {
	prevIdx := make(map[int32]int32, len(prevToWeb))
	for i, wp := range prevToWeb {
		prevIdx[wp] = int32(i)
	}
	out := make([]int32, len(nextToWeb))
	for i, wp := range nextToWeb {
		if j, ok := prevIdx[wp]; ok {
			out[i] = j
		} else {
			out[i] = -1
		}
	}
	return out
}
