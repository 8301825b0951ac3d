package serve

import (
	"sync"

	"p2prank/internal/search"
)

// queryCache caches merged responses keyed by (terms, k, from, store
// version). Because every publish mints a fresh global version, a hit
// is always as current as recomputing — the version in the key IS the
// invalidation, provided an entry was computed against exactly the
// state its key names: Querier.Serve uses the cache only from a settled
// store and fills it only if no version was minted meanwhile (see
// Store.settledVersion). Entries are bounded: when the map reaches
// capacity it is cleared wholesale (deterministic, no clock-driven
// LRU), which also lazily evicts entries stranded on old versions.
type queryCache struct {
	mu           sync.Mutex
	cap          int
	m            map[uint64]*cacheEntry
	hits, misses int64
}

type cacheEntry struct {
	next *cacheEntry // hash-collision chain

	terms  []int32
	k      int
	from   int
	storeV int64

	postings  []search.Posting
	version   int64
	staleness int64
	cost      search.Cost
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{cap: capacity, m: make(map[uint64]*cacheEntry, capacity)}
}

// cacheKey hashes the full lookup tuple, FNV-1a style.
//
//p2plint:hotpath
func cacheKey(terms []int32, k, from int, storeV int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range terms {
		h ^= uint64(uint32(t))
		h *= prime64
	}
	h ^= uint64(uint32(k))
	h *= prime64
	h ^= uint64(uint32(from))
	h *= prime64
	h ^= uint64(storeV)
	h *= prime64
	return h
}

//p2plint:hotpath
func eqTerms(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get copies a cached response into resp. A hit allocates nothing once
// resp.Postings has capacity. minVersion is the caller's freshness
// floor: an entry whose served version is below it is NOT a hit — the
// bound is checked here, before anything is copied out, so a caller
// demanding fresher ranks than the cached answer falls through to the
// compute path instead of being handed data it explicitly refused.
//
//p2plint:hotpath
func (c *queryCache) get(terms []int32, k, from int, minVersion, storeV int64, resp *search.Response) bool {
	key := cacheKey(terms, k, from, storeV)
	c.mu.Lock()
	for e := c.m[key]; e != nil; e = e.next {
		if e.storeV == storeV && e.k == k && e.from == from && eqTerms(e.terms, terms) {
			if e.version < minVersion {
				break // cached answer too old for this caller
			}
			resp.Postings = append(resp.Postings[:0], e.postings...)
			resp.Version = e.version
			resp.Staleness = e.staleness
			resp.Cost = e.cost
			c.hits++
			c.mu.Unlock()
			return true
		}
	}
	c.misses++
	c.mu.Unlock()
	return false
}

// put stores a computed response. The miss-then-fill allocations are
// amortized across the hits they enable.
//
//p2plint:hotpath
func (c *queryCache) put(terms []int32, k, from int, storeV int64, resp *search.Response) {
	key := cacheKey(terms, k, from, storeV)
	//p2plint:allow hotalloc -- cache fill on miss, amortized across hits
	e := &cacheEntry{
		k:         k,
		from:      from,
		storeV:    storeV,
		version:   resp.Version,
		staleness: resp.Staleness,
		cost:      resp.Cost,
	}
	//p2plint:allow hotalloc -- cache fill on miss, amortized across hits
	e.terms = append([]int32(nil), terms...)
	//p2plint:allow hotalloc -- cache fill on miss, amortized across hits
	e.postings = append([]search.Posting(nil), resp.Postings...)
	c.mu.Lock()
	if len(c.m) >= c.cap {
		clear(c.m)
	}
	e.next = c.m[key]
	c.m[key] = e
	c.mu.Unlock()
}

func (c *queryCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
