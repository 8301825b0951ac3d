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
// There is one graph type, *Graph, and every consumer (partitioning,
// group assembly, the centralized reference solver, experiments) reads
// it through the same accessors. Where its arrays live is private: on
// the heap (Builder.Build, Generate, ReadText, Materialize) or aliased
// over a memory-mapped version-2 file (Open, OpenMapped,
// MappedFromBytes; see mapped.go and DESIGN.md §15), so multi-million-
// page crawls open in O(1).
package webgraph

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
)

// Graph is an immutable crawled link graph, safe for concurrent
// readers. Its arrays are either heap slices or views into a mapped
// file; the accessors are the same code either way, so the backing
// cannot change a result. Close releases a mapping and is a no-op on a
// heap graph.
type Graph struct {
	// sites holds the hostname of every site, indexed by site ID
	// (always on the heap: sites ≪ pages).
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

	// extLinks caches sum(extOut) and fp the canonical fingerprint, so
	// NumExternalLinks and Fingerprint are O(1) on a shared graph (no
	// lazy writes — a Graph is read concurrently by parallel experiment
	// curves). seal computes them for a heap graph; a file carries them
	// in its header and Validate checks both against the arrays.
	extLinks int64
	fp       uint64

	// unmap is non-nil exactly when the graph was opened over a file's
	// bytes, which the arrays then alias (alignment permitting); it
	// releases them.
	unmap func() error
}

// Store and Mapped are the two names this type used to be split under.
// bench/ (its own module, frozen to feature PRs) is their only user;
// the benchmark re-baseline (ROADMAP, "Numbers a script wrote") removes
// both lines.
type (
	Store  = *Graph
	Mapped = Graph
)

// seal freezes the derived values. Every heap constructor in this
// package (Builder.Build, Materialize) calls it exactly once, after
// which the graph must not be mutated.
func (g *Graph) seal() *Graph {
	g.extLinks = sumExt(g.extOut)
	g.fp = FingerprintOf(g)
	return g
}

func sumExt(extOut []int32) int64 {
	var sum int64
	for _, c := range extOut {
		sum += int64(c)
	}
	return sum
}

// Close releases the file mapping behind a graph opened from disk;
// every slice borrowed from it (InternalOut results, most of all) is
// invalid afterwards. On a heap graph it does nothing and the graph
// stays usable.
func (g *Graph) Close() error {
	if g.unmap == nil {
		return nil
	}
	u := g.unmap
	g.unmap = nil
	g.siteOf, g.localID, g.extOut, g.outPtr, g.outDst = nil, nil, nil, nil, nil
	return u()
}

// NumPages returns the number of pages in the graph.
func (g *Graph) NumPages() int { return len(g.siteOf) }

// NumSites returns the number of sites in the graph.
func (g *Graph) NumSites() int { return len(g.sites) }

// NumInternalLinks returns the number of links with both endpoints in
// the crawl.
func (g *Graph) NumInternalLinks() int64 { return int64(len(g.outDst)) }

// NumExternalLinks returns the number of links whose destination is
// outside the crawl. O(1): the sum is cached.
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
// returned slice borrows graph storage: it must not be modified, and
// on a graph opened from a file it dies with Close. Copy before
// retaining.
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

// SiteName returns the hostname of page p's site.
func (g *Graph) SiteName(p int32) string { return g.sites[g.siteOf[p]] }

// URL returns the canonical URL of page p, derived from its site name
// and local ordinal. URLs are synthesized rather than stored so that a
// million-page graph does not hold a million strings.
func (g *Graph) URL(p int32) string {
	var buf [64]byte
	return string(AppendURL(buf[:0], g, p))
}

// AppendURL appends page p's canonical URL — "http://<site host>/p<local
// ordinal>.html" — to dst and returns the extended slice. Callers that
// hash a URL per page pass a reused buffer and allocate nothing.
func AppendURL(dst []byte, g *Graph, p int32) []byte {
	dst = append(dst, "http://"...)
	dst = append(dst, g.SiteName(p)...)
	dst = append(dst, "/p"...)
	dst = strconv.AppendInt(dst, int64(g.localID[p]), 10)
	return append(dst, ".html"...)
}

// Fingerprint returns a stable FNV-64a digest of the graph structure:
// equal fingerprints mean byte-identical sites, page tables and
// adjacency, however the graph is backed. O(1): computed when a heap
// graph is built, read from the header of a file.
func (g *Graph) Fingerprint() uint64 { return g.fp }

// FingerprintOf recomputes the canonical fingerprint from the arrays
// (as opposed to Fingerprint, which answers from the cached value):
// FNV-64a over the three counts, the length-prefixed site hostnames,
// and the raw little-endian page/adjacency arrays, in that order. This
// is the one digest walk; seal stores its result and Validate compares
// against it.
func FingerprintOf(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [4096]byte
	n := 0
	flush := func() {
		h.Write(buf[:n])
		n = 0
	}
	w64 := func(v uint64) {
		if n+8 > len(buf) {
			flush()
		}
		for i := 0; i < 8; i++ {
			buf[n+i] = byte(v >> (8 * i))
		}
		n += 8
	}
	w32 := func(v uint32) {
		if n+4 > len(buf) {
			flush()
		}
		buf[n] = byte(v)
		buf[n+1] = byte(v >> 8)
		buf[n+2] = byte(v >> 16)
		buf[n+3] = byte(v >> 24)
		n += 4
	}
	w64(uint64(len(g.sites)))
	w64(uint64(len(g.siteOf)))
	w64(uint64(len(g.outDst)))
	for _, host := range g.sites {
		w64(uint64(len(host)))
		for len(host) > 0 {
			if n == len(buf) {
				flush()
			}
			c := copy(buf[n:], host)
			n += c
			host = host[c:]
		}
	}
	for _, arr := range [][]int32{g.siteOf, g.localID, g.extOut, g.outDst} {
		for _, v := range arr {
			w32(uint32(v))
		}
	}
	for _, v := range g.outPtr {
		w64(uint64(v))
	}
	flush()
	return h.Sum64()
}

// Validate checks the whole graph: structural invariants (matching
// slice lengths, monotone CSR pointers, in-range destinations and site
// IDs), then the cached external-link sum and fingerprint against a
// recomputation from the arrays. A graph built by this package always
// validates; Open runs the check on every file a user hands in, and
// OpenMapped deliberately skips it. O(pages + links).
func (g *Graph) Validate() error {
	n := g.NumPages()
	if len(g.localID) != n || len(g.extOut) != n {
		return fmt.Errorf("webgraph: per-page slice lengths disagree (%d pages, %d local ids, %d ext counts)",
			n, len(g.localID), len(g.extOut))
	}
	if len(g.outPtr) != n+1 {
		return fmt.Errorf("webgraph: OutPtr has length %d, want %d", len(g.outPtr), n+1)
	}
	if g.outPtr[0] != 0 || g.outPtr[n] != int64(len(g.outDst)) {
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
	if ext := sumExt(g.extOut); ext != g.extLinks {
		return fmt.Errorf("webgraph: cached external-link count %d, pages sum to %d", g.extLinks, ext)
	}
	if got := FingerprintOf(g); got != g.fp {
		return fmt.Errorf("webgraph: cached fingerprint %#x, arrays hash to %#x", g.fp, got)
	}
	return nil
}

// Materialize returns a heap graph with the same contents as g. A heap
// graph is returned unchanged (graphs are immutable); a graph opened
// from a file has every array copied, so the result outlives its Close.
func Materialize(g *Graph) *Graph {
	if g.unmap == nil {
		return g
	}
	return (&Graph{
		sites:   g.sites,
		siteOf:  slices.Clone(g.siteOf),
		localID: slices.Clone(g.localID),
		extOut:  slices.Clone(g.extOut),
		outPtr:  slices.Clone(g.outPtr),
		outDst:  slices.Clone(g.outDst),
	}).seal()
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
	if k < 0 || k > math.MaxInt32-int(b.extOut[u]) {
		return fmt.Errorf("webgraph: external link count %d negative or past int32 for page %d", k, u)
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
