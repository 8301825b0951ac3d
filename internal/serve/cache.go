package serve

import (
	"math/bits"
	"sync"

	"p2prank/internal/search"
)

// A slot's share of the arena: answers of up to slotPostings postings
// for queries of up to slotTerms terms live in it; a larger one gets a
// buffer of its own for as long as its slot keeps it.
const (
	slotPostings = 16
	slotTerms    = 4
)

// none is the nil slot index of the age list and the hash chains.
const none = int32(-1)

// queryCache caches merged responses keyed by (terms, k, from, store
// version). Because every publish mints a fresh global version, a hit
// is always as current as recomputing — the version in the key IS the
// invalidation, provided an entry was computed against exactly the
// state its key names: Querier.Serve uses the cache only from a settled
// store and fills it only if no version was minted meanwhile (see
// Store.settledVersion).
//
// Entries live in a fixed slab and are evicted by SIEVE (Zhang et al.,
// NSDI '24): a hit sets the entry's visited bit and moves nothing; a
// fill into a full slab sweeps the hand from the oldest entry towards
// the newest, clearing visited bits, evicts the first entry it finds
// unvisited, and the new entry enters as the newest. No clock and no
// randomness: the hit sequence is a function of the request sequence.
// Entries stranded on an old version are never visited again, so the
// hand takes them before any live entry that was — they need no sweep.
//
// Nothing is allocated after construction for answers that fit a slot:
// a fill reuses the evicted slot's buffers, which are carved from one
// arena — allocated one by one to fit their answers they would share a
// size class with the republished score snapshots and pin those spans
// for the tier's life (DESIGN.md §16).
type queryCache struct {
	mu    sync.Mutex
	slots []cacheEntry
	// live counts the filled slots, slots[:live]: entries only ever
	// leave by eviction, so the slab fills front to back, once.
	live int
	// buckets[h>>shift] heads the chain of entries hashing there.
	buckets []int32
	shift   uint
	// The age list: head is the newest entry, tail the oldest; hand is
	// where the next sweep resumes (none: at the tail).
	head, tail, hand int32

	postArena []search.Posting
	termArena []int32

	hits, misses, evictions int64
}

type cacheEntry struct {
	hash         uint64
	chain        int32 // next entry in the hash bucket
	newer, older int32 // age-list neighbours
	visited      bool

	key cacheKey // key.terms is the slot's own copy

	postings  []search.Posting
	version   int64
	staleness int64
	// advances is the Store.advances reading staleness was taken at.
	advances int64
	cost     search.Cost
}

func newQueryCache(capacity int) *queryCache {
	// 2^n ≥ 2·capacity buckets, indexed by a hash's top n bits: at most
	// half full, so chains stay a probe or two long.
	n := bits.Len(uint(2*capacity - 1))
	c := &queryCache{
		slots:     make([]cacheEntry, capacity),
		buckets:   make([]int32, 1<<n),
		shift:     uint(64 - n),
		head:      none,
		tail:      none,
		hand:      none,
		postArena: make([]search.Posting, capacity*slotPostings),
		termArena: make([]int32, capacity*slotTerms),
	}
	for i := range c.buckets {
		c.buckets[i] = none
	}
	return c
}

// cacheKey is the full lookup tuple.
type cacheKey struct {
	terms   []int32
	k, from int
	storeV  int64
}

// hash is FNV-1a over the tuple.
//
//p2plint:hotpath
func (key cacheKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range key.terms {
		h ^= uint64(uint32(t))
		h *= prime64
	}
	h ^= uint64(uint32(key.k))
	h *= prime64
	h ^= uint64(uint32(key.from))
	h *= prime64
	h ^= uint64(key.storeV)
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

// find returns the slot holding key, whose hash is hash, or none.
// Callers hold mu.
//
//p2plint:hotpath
func (c *queryCache) find(hash uint64, key cacheKey) int32 {
	for i := c.buckets[hash>>c.shift]; i != none; i = c.slots[i].chain {
		e := &c.slots[i]
		if e.hash == hash && e.key.storeV == key.storeV && e.key.k == key.k && e.key.from == key.from && eqTerms(e.key.terms, key.terms) {
			return i
		}
	}
	return none
}

// get copies a cached response into resp. A hit allocates nothing once
// resp.Postings has capacity. minVersion is the caller's freshness
// floor: an entry whose served version is below it is NOT a hit — the
// bound is checked here, before anything is copied out, so a caller
// demanding fresher ranks than the cached answer falls through to the
// compute path instead of being handed data it explicitly refused.
//
// Staleness ages without a version (Store.Advance): current reports
// whether the entry's was taken at this advances count. If not, the
// caller recomputes it and hands it back through restamp.
//
//p2plint:hotpath
func (c *queryCache) get(key cacheKey, minVersion, advances int64, resp *search.Response) (hit, current bool) {
	hash := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(hash, key)
	if i == none || c.slots[i].version < minVersion {
		c.misses++
		return false, false
	}
	e := &c.slots[i]
	e.visited = true
	resp.Postings = append(resp.Postings[:0], e.postings...)
	resp.Version = e.version
	resp.Staleness = e.staleness
	resp.Cost = e.cost
	c.hits++
	return true, e.advances == advances
}

// restamp records the key's staleness as recomputed at advances, if the
// entry is still there.
//
//p2plint:hotpath
func (c *queryCache) restamp(key cacheKey, advances, staleness int64) {
	hash := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.find(hash, key); i != none {
		c.slots[i].staleness = staleness
		c.slots[i].advances = advances
	}
}

// put stores a computed response whose staleness was taken at advances,
// over the key's entry if it has one, else in a free slot, else in the
// slot SIEVE gives up.
//
//p2plint:hotpath
func (c *queryCache) put(key cacheKey, advances int64, resp *search.Response) {
	hash := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(hash, key)
	if i == none {
		if c.live < len(c.slots) {
			i = int32(c.live)
			c.live++
		} else {
			i = c.evict()
		}
		c.link(i, hash)
	}
	e := &c.slots[i]
	// A slot's first fill takes its share of the arena, and so does the
	// fill after an answer that outgrew it: the oversized buffer goes
	// with the entry it was grown for.
	terms := e.key.terms
	if cap(terms) != slotTerms {
		terms = c.termArena[int(i)*slotTerms : int(i)*slotTerms : (int(i)+1)*slotTerms]
	}
	if cap(e.postings) != slotPostings {
		e.postings = c.postArena[int(i)*slotPostings : int(i)*slotPostings : (int(i)+1)*slotPostings]
	}
	e.key = key
	e.key.terms = append(terms[:0], key.terms...)
	e.postings = append(e.postings[:0], resp.Postings...)
	e.version, e.staleness, e.advances = resp.Version, resp.Staleness, advances
	e.cost = resp.Cost
}

// link enters slot i as the newest entry, unvisited, on hash's chain.
//
//p2plint:hotpath
func (c *queryCache) link(i int32, hash uint64) {
	e := &c.slots[i]
	e.hash, e.visited = hash, false
	b := &c.buckets[hash>>c.shift]
	e.chain, *b = *b, i
	e.newer, e.older = none, c.head
	if c.head != none {
		c.slots[c.head].newer = i
	} else {
		c.tail = i
	}
	c.head = i
}

// evict is SIEVE's sweep over a full slab: from the hand towards the
// newest entry and round to the oldest again, clearing visited bits,
// until an unvisited entry turns up. That entry is unlinked and its
// slot returned; the hand rests on its newer neighbour.
//
//p2plint:hotpath
func (c *queryCache) evict() int32 {
	i := c.hand
	for {
		if i == none {
			i = c.tail
		}
		if !c.slots[i].visited {
			break
		}
		c.slots[i].visited = false
		i = c.slots[i].newer
	}
	e := &c.slots[i]
	c.hand = e.newer
	if e.newer != none {
		c.slots[e.newer].older = e.older
	} else {
		c.head = e.older
	}
	if e.older != none {
		c.slots[e.older].newer = e.newer
	} else {
		c.tail = e.newer
	}
	p := &c.buckets[e.hash>>c.shift]
	for *p != i {
		p = &c.slots[*p].chain
	}
	*p = e.chain
	c.evictions++
	return i
}

func (c *queryCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// usage returns how many entries the cache holds and how many it has
// evicted.
func (c *queryCache) usage() (entries int, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live, c.evictions
}
