package webgraph

import (
	"hash/fnv"
	"strconv"
)

// Store is read-only access to a crawled link graph. It is the seam
// between graph storage and every consumer (partitioning, group
// assembly, the centralized reference solver, experiments): callers
// never see the backing arrays, so a graph may live fully in memory
// (Graph) or stay on disk behind an mmap (Mapped) without the consumer
// changing.
//
// Slices returned by InternalOut borrow the store's backing memory:
// they must not be modified, and for a Mapped store they become invalid
// once Close unmaps the file. Copy before retaining.
//
// All implementations are immutable after construction and safe for
// concurrent readers.
type Store interface {
	// NumPages returns the number of pages in the graph.
	NumPages() int
	// NumSites returns the number of sites in the graph.
	NumSites() int
	// NumInternalLinks returns the number of links with both endpoints
	// inside the crawl.
	NumInternalLinks() int64
	// NumExternalLinks returns the number of links whose destination is
	// outside the crawl. O(1): both stores cache the sum.
	NumExternalLinks() int64
	// OutDegree returns d(u), counting internal and external links.
	OutDegree(u int32) int
	// InternalOut returns page u's internal out-neighbours as a
	// borrowed slice (see the interface comment).
	InternalOut(u int32) []int32
	// ExtOut returns the number of external out-links of page u.
	ExtOut(u int32) int32
	// SiteOf returns the site ID of page p.
	SiteOf(p int32) int32
	// LocalID returns page p's ordinal within its site.
	LocalID(p int32) int32
	// SiteHost returns the hostname of site s.
	SiteHost(s int32) string
	// URL returns the canonical URL of page p.
	URL(p int32) string
	// SiteName returns the hostname of page p's site.
	SiteName(p int32) string
	// Fingerprint returns a stable FNV-64a digest of the graph
	// structure: equal fingerprints mean byte-identical sites, page
	// tables, and adjacency, independent of how the graph is stored.
	Fingerprint() uint64
	// Validate checks structural invariants (monotone CSR pointers,
	// in-range IDs). O(pages + links).
	Validate() error
}

// AppendURL appends page p's canonical URL — "http://<site host>/p<local
// ordinal>.html", the one definition both stores' URL methods share —
// to dst and returns the extended slice. Callers that hash a URL per
// page pass a reused buffer and allocate nothing.
func AppendURL(dst []byte, g Store, p int32) []byte {
	dst = append(dst, "http://"...)
	dst = append(dst, g.SiteHost(g.SiteOf(p))...)
	dst = append(dst, "/p"...)
	dst = strconv.AppendInt(dst, int64(g.LocalID(p)), 10)
	return append(dst, ".html"...)
}

// fingerprintArrays is the one canonical digest both stores agree on:
// FNV-64a over the three counts, the length-prefixed site hostnames,
// and the raw little-endian page/adjacency arrays, in that order. The
// on-disk format embeds the result in its header so a Mapped store
// answers Fingerprint without touching the arrays.
func fingerprintArrays(sites []string, siteOf, localID, extOut []int32, outPtr []int64, outDst []int32) uint64 {
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
	w64(uint64(len(sites)))
	w64(uint64(len(siteOf)))
	w64(uint64(len(outDst)))
	for _, host := range sites {
		w64(uint64(len(host)))
		flush()
		h.Write([]byte(host))
	}
	for _, arr := range [][]int32{siteOf, localID, extOut, outDst} {
		for _, v := range arr {
			w32(uint32(v))
		}
	}
	for _, v := range outPtr {
		w64(uint64(v))
	}
	flush()
	return h.Sum64()
}

// FingerprintOf recomputes a store's canonical fingerprint from its
// contents (as opposed to Fingerprint, which both stores answer from a
// cached or on-disk value). Mapped.Validate uses it to detect payload
// corruption; tests use it to pin cross-store equality.
func FingerprintOf(s Store) uint64 {
	nPages := s.NumPages()
	nSites := s.NumSites()
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:8])
	}
	w32 := func(v uint32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:4])
	}
	w64(uint64(nSites))
	w64(uint64(nPages))
	w64(uint64(s.NumInternalLinks()))
	for i := 0; i < nSites; i++ {
		host := s.SiteHost(int32(i))
		w64(uint64(len(host)))
		h.Write([]byte(host))
	}
	for p := 0; p < nPages; p++ {
		w32(uint32(s.SiteOf(int32(p))))
	}
	for p := 0; p < nPages; p++ {
		w32(uint32(s.LocalID(int32(p))))
	}
	for p := 0; p < nPages; p++ {
		w32(uint32(s.ExtOut(int32(p))))
	}
	for p := 0; p < nPages; p++ {
		for _, v := range s.InternalOut(int32(p)) {
			w32(uint32(v))
		}
	}
	// OutPtr is hashed after OutDst; rebuild it from the window widths
	// (outPtr[0] = 0, outPtr[p+1] = outPtr[p] + len(window)).
	var off int64
	w64(0)
	for p := 0; p < nPages; p++ {
		off += int64(len(s.InternalOut(int32(p))))
		w64(uint64(off))
	}
	return h.Sum64()
}

// Materialize returns an in-memory Graph with the same contents as s.
// If s is already a *Graph it is returned unchanged (stores are
// immutable); otherwise every array is copied, so the result outlives
// the source store's Close.
func Materialize(s Store) *Graph {
	if g, ok := s.(*Graph); ok {
		return g
	}
	nPages := s.NumPages()
	nSites := s.NumSites()
	g := &Graph{
		sites:   make([]string, nSites),
		siteOf:  make([]int32, nPages),
		localID: make([]int32, nPages),
		extOut:  make([]int32, nPages),
		outPtr:  make([]int64, nPages+1),
		outDst:  make([]int32, s.NumInternalLinks()),
	}
	for i := range g.sites {
		g.sites[i] = s.SiteHost(int32(i))
	}
	var off int64
	for p := 0; p < nPages; p++ {
		u := int32(p)
		g.siteOf[p] = s.SiteOf(u)
		g.localID[p] = s.LocalID(u)
		g.extOut[p] = s.ExtOut(u)
		g.outPtr[p] = off
		off += int64(copy(g.outDst[off:], s.InternalOut(u)))
	}
	g.outPtr[nPages] = off
	return g.seal()
}

// PagesOfSite returns the page indices belonging to site s, in
// increasing order.
func PagesOfSite(g Store, s int32) []int32 {
	var out []int32
	for p := 0; p < g.NumPages(); p++ {
		if g.SiteOf(int32(p)) == s {
			out = append(out, int32(p))
		}
	}
	return out
}
