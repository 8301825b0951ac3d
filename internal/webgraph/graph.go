// Package webgraph models a crawled web link graph: pages grouped into
// sites, with internal links (both endpoints inside the crawl) stored in
// compressed sparse row form and external links (pointing at pages the
// crawler never fetched) counted per page.
//
// The external-link count matters for reproducing the paper: in the
// Google programming-contest dataset only 7M of 15M links point at pages
// inside the dataset, and because PageRank mass sent along an external
// link leaves the system, the converged average rank in Figure 7 is ≈0.3
// rather than 1. A page's out-degree d(u) therefore always counts both
// internal and external links.
//
// Graph access goes through the Store interface (see store.go), which
// has two implementations: Graph, the in-memory arrays built here, and
// Mapped, a read-only view over the on-disk binary format whose arrays
// are memory-mapped so multi-million-page crawls load in O(1)
// (see mapped.go and DESIGN.md §15).
package webgraph

import (
	"fmt"
)

// Graph is an immutable crawled link graph held fully in memory. Build
// one with a Builder, the Generate function, or one of the Read
// functions. It implements Store.
type Graph struct {
	// sites holds the hostname of every site, indexed by site ID.
	sites []string
	// siteOf maps a page index to its site ID.
	siteOf []int32
	// localID maps a page index to its ordinal within its site; it is
	// used to derive stable page URLs.
	localID []int32
	// outPtr/outDst is the CSR adjacency of internal links: page u's
	// internal out-neighbours are outDst[outPtr[u]:outPtr[u+1]].
	outPtr []int64
	outDst []int32
	// extOut counts the external out-links of each page (links whose
	// destination is outside the crawl).
	extOut []int32

	// extLinks caches sum(extOut) and fp the canonical fingerprint;
	// both are computed once by seal() so NumExternalLinks and
	// Fingerprint are O(1) on a shared graph (no lazy writes — a Graph
	// is read concurrently by parallel experiment curves).
	extLinks int64
	fp       uint64
}

// seal freezes the derived values. Every constructor in this package
// (Builder.Build, ReadText, ReadBinary, Materialize) calls it exactly
// once, after which the graph must not be mutated.
func (g *Graph) seal() *Graph {
	g.extLinks = 0
	for _, c := range g.extOut {
		g.extLinks += int64(c)
	}
	g.fp = fingerprintArrays(g.sites, g.siteOf, g.localID, g.extOut, g.outPtr, g.outDst)
	return g
}

// NumPages returns the number of pages in the graph.
func (g *Graph) NumPages() int { return len(g.siteOf) }

// NumSites returns the number of sites in the graph.
func (g *Graph) NumSites() int { return len(g.sites) }

// NumInternalLinks returns the number of links with both endpoints in
// the crawl.
func (g *Graph) NumInternalLinks() int64 { return int64(len(g.outDst)) }

// NumExternalLinks returns the number of links whose destination is
// outside the crawl. The sum is cached at build/read time.
func (g *Graph) NumExternalLinks() int64 { return g.extLinks }

// OutDegree returns d(u): the total out-degree of page u, counting both
// internal and external links. This is the denominator used when page u
// distributes its rank.
//
//p2plint:hotpath
func (g *Graph) OutDegree(u int32) int {
	return int(g.outPtr[u+1]-g.outPtr[u]) + int(g.extOut[u])
}

// InternalOut returns the internal out-neighbours of page u. The
// returned slice borrows graph storage and must not be modified or
// retained past the life of the store.
//
//p2plint:hotpath
func (g *Graph) InternalOut(u int32) []int32 {
	return g.outDst[g.outPtr[u]:g.outPtr[u+1]]
}

// ExtOut returns the number of external out-links of page u.
//
//p2plint:hotpath
func (g *Graph) ExtOut(u int32) int32 { return g.extOut[u] }

// SiteOf returns the site ID of page p.
func (g *Graph) SiteOf(p int32) int32 { return g.siteOf[p] }

// LocalID returns page p's ordinal within its site.
func (g *Graph) LocalID(p int32) int32 { return g.localID[p] }

// SiteHost returns the hostname of site s.
func (g *Graph) SiteHost(s int32) string { return g.sites[s] }

// URL returns the canonical URL of page p, derived from its site name
// and local ordinal. URLs are synthesized rather than stored so that a
// million-page graph does not hold a million strings.
func (g *Graph) URL(p int32) string {
	var buf [64]byte
	return string(AppendURL(buf[:0], g, p))
}

// SiteName returns the hostname of page p's site.
func (g *Graph) SiteName(p int32) string { return g.sites[g.siteOf[p]] }

// Fingerprint returns the canonical structure fingerprint (see
// Fingerprint in store.go), computed once at build/read time.
func (g *Graph) Fingerprint() uint64 { return g.fp }

// Validate checks structural invariants: monotone CSR pointers, in-range
// destinations and site IDs, and matching slice lengths. A Graph built
// by this package always validates; the check exists for graphs read
// from external files.
func (g *Graph) Validate() error {
	n := g.NumPages()
	if len(g.localID) != n || len(g.extOut) != n {
		return fmt.Errorf("webgraph: per-page slice lengths disagree (%d pages, %d local ids, %d ext counts)",
			n, len(g.localID), len(g.extOut))
	}
	if len(g.outPtr) != n+1 {
		return fmt.Errorf("webgraph: OutPtr has length %d, want %d", len(g.outPtr), n+1)
	}
	if n > 0 && (g.outPtr[0] != 0 || g.outPtr[n] != int64(len(g.outDst))) {
		return fmt.Errorf("webgraph: OutPtr endpoints [%d,%d] disagree with %d edges",
			g.outPtr[0], g.outPtr[n], len(g.outDst))
	}
	for i := 0; i < n; i++ {
		if g.outPtr[i] > g.outPtr[i+1] {
			return fmt.Errorf("webgraph: OutPtr not monotone at page %d", i)
		}
		if s := g.siteOf[i]; s < 0 || int(s) >= len(g.sites) {
			return fmt.Errorf("webgraph: page %d has invalid site %d", i, s)
		}
		if g.extOut[i] < 0 {
			return fmt.Errorf("webgraph: page %d has negative external count", i)
		}
	}
	for k, d := range g.outDst {
		if d < 0 || int(d) >= n {
			return fmt.Errorf("webgraph: edge %d targets invalid page %d", k, d)
		}
	}
	return nil
}

// Builder accumulates sites, pages, and links, then produces an
// immutable Graph. The zero value is ready to use.
type Builder struct {
	sites    []string
	siteIdx  map[string]int32
	siteOf   []int32
	localID  []int32
	perSite  []int32 // next local ordinal per site
	extOut   []int32
	links    [][2]int32 // internal links as (src, dst)
	finished bool
}

// AddSite registers a site by hostname and returns its ID. Adding the
// same hostname twice returns the existing ID.
func (b *Builder) AddSite(host string) int32 {
	if b.siteIdx == nil {
		b.siteIdx = make(map[string]int32)
	}
	if id, ok := b.siteIdx[host]; ok {
		return id
	}
	id := int32(len(b.sites))
	b.sites = append(b.sites, host)
	b.siteIdx[host] = id
	b.perSite = append(b.perSite, 0)
	return id
}

// AddPage adds a page to site s and returns its page index. It panics
// if s is not a valid site ID.
func (b *Builder) AddPage(s int32) int32 {
	if s < 0 || int(s) >= len(b.sites) {
		panic(fmt.Sprintf("webgraph: AddPage with invalid site %d", s))
	}
	p := int32(len(b.siteOf))
	b.siteOf = append(b.siteOf, s)
	b.localID = append(b.localID, b.perSite[s])
	b.perSite[s]++
	b.extOut = append(b.extOut, 0)
	return p
}

// SetLocalID overrides page p's local ordinal. Crawl snapshots use it
// to preserve true-web ordinals (and hence stable URLs) regardless of
// discovery order; p must be a page previously returned by AddPage.
func (b *Builder) SetLocalID(p, id int32) error {
	if p < 0 || int(p) >= len(b.siteOf) {
		return fmt.Errorf("webgraph: SetLocalID for invalid page %d", p)
	}
	b.localID[p] = id
	return nil
}

// AddLink records an internal link from page u to page v. Both must be
// valid page indices.
func (b *Builder) AddLink(u, v int32) error {
	n := int32(len(b.siteOf))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("webgraph: link (%d,%d) out of range for %d pages", u, v, n)
	}
	b.links = append(b.links, [2]int32{u, v})
	return nil
}

// AddExternalLinks records that page u has k out-links pointing outside
// the crawl.
func (b *Builder) AddExternalLinks(u int32, k int) error {
	if u < 0 || int(u) >= len(b.siteOf) {
		return fmt.Errorf("webgraph: external links for invalid page %d", u)
	}
	if k < 0 {
		return fmt.Errorf("webgraph: negative external link count %d", k)
	}
	b.extOut[u] += int32(k)
	return nil
}

// NumPages returns the number of pages added so far.
func (b *Builder) NumPages() int { return len(b.siteOf) }

// Build assembles the immutable Graph. The Builder must not be used
// afterwards.
func (b *Builder) Build() *Graph {
	if b.finished {
		panic("webgraph: Build called twice")
	}
	b.finished = true
	n := len(b.siteOf)
	g := &Graph{
		sites:   b.sites,
		siteOf:  b.siteOf,
		localID: b.localID,
		outPtr:  make([]int64, n+1),
		outDst:  make([]int32, len(b.links)),
		extOut:  b.extOut,
	}
	// Counting sort links by source for CSR assembly.
	for _, l := range b.links {
		g.outPtr[l[0]+1]++
	}
	for i := 0; i < n; i++ {
		g.outPtr[i+1] += g.outPtr[i]
	}
	next := make([]int64, n)
	copy(next, g.outPtr[:n])
	for _, l := range b.links {
		g.outDst[next[l[0]]] = l[1]
		next[l[0]]++
	}
	return g.seal()
}
