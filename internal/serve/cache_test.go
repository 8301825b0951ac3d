package serve

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"p2prank/internal/search"
)

// The cache tests and FuzzQueryCache drive the slab through one
// interpreter, cacheModel, which runs every operation against an
// unbounded map as well: whatever the slab still holds must be exactly
// what was last put under that key, and its lists must stay sound. A
// script is a byte string, two bytes an operation: the first is the
// operation plus 5 × the key's shape flags, the second's low four bits
// the key's first term.
const (
	opGet      = iota // look the key up
	opPut             // store a fresh answer under the key
	opPublish         // mint a store version
	opTick            // one Store.Advance
	opGetFloor        // look the key up with MinVersion = the store version
	numOps
)

// keyOp encodes op on key n of the 256 a version has: n's low four bits
// are its first term, the next four its k, origin and term count.
func keyOp(op byte, n int) []byte {
	return []byte{op + numOps*byte(n>>4<<1), byte(n & 15)}
}

type cacheModel struct {
	t testing.TB
	c *queryCache
	// oracle maps a key to the last answer put under it; advances[key]
	// is the tick count that answer's staleness was taken at.
	oracle   map[string]search.Response
	advances map[string]int64
	storeV   int64
	ticks    int64
	puts     int
	// evicted lists, oldest first, the keys the slab was seen to drop.
	evicted []string
}

func newCacheModel(t testing.TB, capacity int) *cacheModel {
	return &cacheModel{
		t: t, c: newQueryCache(capacity), storeV: 1,
		oracle: map[string]search.Response{}, advances: map[string]int64{},
	}
}

func (m *cacheModel) run(script []byte) {
	for ; len(script) >= 2; script = script[2:] {
		m.step(script[0], script[1])
	}
}

// step runs one operation and reports whether it was a lookup that hit.
func (m *cacheModel) step(b0, b1 byte) bool {
	m.t.Helper()
	op, flags := b0%numOps, b0/numOps
	oversized := flags&1 != 0
	k, from := 1+int(flags>>1&1), int(flags>>2&1)
	terms := make([]int32, []int{1, 2, slotTerms, slotTerms + 1}[flags>>3&3])
	for i := range terms {
		terms[i] = int32(b1&15) + int32(i)
	}
	key := cacheKey{terms: terms, k: k, from: from, storeV: m.storeV}
	name := fmt.Sprint(key)
	hit := false
	switch op {
	case opPublish:
		m.storeV++
	case opTick:
		m.ticks++
	case opPut:
		m.puts++
		n := k
		if oversized {
			n = slotPostings + 4
		}
		resp := search.Response{
			Version:   m.storeV - int64(m.puts&1),
			Staleness: int64(m.puts % 3),
			Cost:      search.Cost{LookupHops: m.puts, Responses: n},
		}
		for i := 0; i < n; i++ {
			resp.Postings = append(resp.Postings, search.Posting{Page: int32(i), Score: float64(m.puts)})
		}
		before := m.held()
		m.c.put(key, m.ticks, &resp)
		m.oracle[name], m.advances[name] = resp, m.ticks
		after := m.held()
		for _, key := range before {
			if !slices.Contains(after, key) {
				m.evicted = append(m.evicted, key)
			}
		}
	case opGet, opGetFloor:
		floor := int64(0)
		if op == opGetFloor {
			floor = m.storeV
		}
		var got search.Response
		var current bool
		hit, current = m.c.get(key, floor, m.ticks, &got)
		want, known := m.oracle[name]
		switch {
		case hit && !known:
			m.t.Fatalf("get %s: hit on a key never put", name)
		case hit && want.Version < floor:
			m.t.Fatalf("get %s: hit at version %d under floor %d", name, want.Version, floor)
		case hit:
			if !slices.Equal(got.Postings, want.Postings) || got.Version != want.Version ||
				got.Staleness != want.Staleness || got.Cost != want.Cost {
				m.t.Fatalf("get %s: hit returned %+v, last put %+v", name, got, want)
			}
			if current != (m.advances[name] == m.ticks) {
				m.t.Fatalf("get %s at tick %d: current = %v, staleness taken at tick %d", name, m.ticks, current, m.advances[name])
			}
			if !current {
				want.Staleness = m.ticks
				m.c.restamp(key, m.ticks, want.Staleness)
				m.oracle[name], m.advances[name] = want, m.ticks
			}
		}
	}
	m.check()
	return hit
}

// held lists the keys in the slab, newest first.
func (m *cacheModel) held() []string {
	var keys []string
	for i := m.c.head; i != none; i = m.c.slots[i].older {
		keys = append(keys, fmt.Sprint(m.c.slots[i].key))
	}
	return keys
}

// ages renders the age list newest to oldest by first term, a visited
// entry starred and the hand's entry in brackets.
func (m *cacheModel) ages() string {
	var b strings.Builder
	for i := m.c.head; i != none; i = m.c.slots[i].older {
		e := &m.c.slots[i]
		s := string(rune('A' + e.key.terms[0]))
		if e.visited {
			s += "*"
		}
		if i == m.c.hand {
			s = "[" + s + "]"
		}
		b.WriteString(s + " ")
	}
	return strings.TrimSpace(b.String())
}

// check holds the slab to its invariants: the age list is acyclic,
// doubly linked and exactly live long, the hand is on it, the hash
// chains reach exactly the same entries, each in its own bucket and no
// key twice, and nothing exceeds the capacity.
func (m *cacheModel) check() {
	m.t.Helper()
	c := m.c
	if c.live > len(c.slots) {
		m.t.Fatalf("%d live entries in %d slots", c.live, len(c.slots))
	}
	listed, handSeen, newer := 0, c.hand == none, none
	for i := c.head; i != none; i = c.slots[i].older {
		if listed++; listed > c.live {
			m.t.Fatalf("age list longer than the %d live entries: a cycle", c.live)
		}
		if c.slots[i].newer != newer {
			m.t.Fatalf("slot %d: newer = %d, reached from %d", i, c.slots[i].newer, newer)
		}
		handSeen = handSeen || i == c.hand
		newer = i
	}
	if listed != c.live || newer != c.tail {
		m.t.Fatalf("age list holds %d entries ending at %d, want %d ending at tail %d", listed, newer, c.live, c.tail)
	}
	if !handSeen {
		m.t.Fatalf("hand %d is not on the age list", c.hand)
	}
	chained := 0
	keys := map[string]bool{}
	for b, i := range c.buckets {
		for ; i != none; i = c.slots[i].chain {
			e := &c.slots[i]
			if chained++; chained > c.live {
				m.t.Fatalf("hash chains longer than the %d live entries", c.live)
			}
			if int(e.hash>>c.shift) != b || e.hash != e.key.hash() {
				m.t.Fatalf("slot %d is chained in bucket %d under a hash not its key's", i, b)
			}
			key := fmt.Sprint(e.key)
			if keys[key] {
				m.t.Fatalf("key %s is held twice", key)
			}
			keys[key] = true
		}
	}
	if chained != c.live {
		m.t.Fatalf("hash chains reach %d entries, %d live", chained, c.live)
	}
}

// figure2 is the walk-through of the SIEVE paper's Figure 2 on a slab of
// seven: A–G fill it, A B D G are hit, then H A D I B J are requested
// (a miss is a lookup, then the fill).
func figure2() (capacity int, warm, requests []byte) {
	for n := 0; n < 7; n++ {
		warm = append(warm, keyOp(opPut, n)...)
	}
	for _, n := range []int{0, 1, 3, 6} {
		warm = append(warm, keyOp(opGet, n)...)
	}
	for _, n := range []int{7, 0, 3, 8, 1, 9} {
		requests = append(requests, keyOp(opGet, n)...)
	}
	return 7, warm, requests
}

func TestCacheSieveEvictionOrder(t *testing.T) {
	capacity, warm, requests := figure2()
	m := newCacheModel(t, capacity)
	m.run(warm)
	if got, want := m.ages(), "G* F E D* C B* A*"; got != want {
		t.Fatalf("warm slab %q, want %q", got, want)
	}
	// After each request, the age list: the hand sweeps from the oldest
	// entry, clears A and B, takes C; later clears D, takes E; then F.
	want := []string{
		"H G* F E [D*] B A",
		"H G* F E [D*] B A*",
		"H G* F E [D*] B A*",
		"I H G* [F] D B A*",
		"I H G* [F] D B* A*",
		"J I H [G*] D B* A*",
	}
	for i := range want {
		if !m.step(requests[2*i], requests[2*i+1]) {
			m.step(requests[2*i]+opPut-opGet, requests[2*i+1])
		}
		if got := m.ages(); got != want[i] {
			t.Fatalf("after request %d: %q, want %q", i, got, want[i])
		}
	}
	if want := []string{"{[2] 1 0 1}", "{[4] 1 0 1}", "{[5] 1 0 1}"}; !slices.Equal(m.evicted, want) {
		t.Fatalf("evicted %v, want C, E, F: %v", m.evicted, want)
	}
}

// A hot set that keeps being asked for survives any number of one-shot
// queries pushed through a full slab: the hand clears the hot entries'
// bits once and moves on, and what it evicts from then on is the
// one-shots themselves, oldest first. Clear-on-full kept none of the
// hot set.
func TestCacheScanResistance(t *testing.T) {
	const capacity, hot = 16, 4
	m := newCacheModel(t, capacity)
	for n := 0; n < capacity; n++ {
		m.run(keyOp(opPut, n))
	}
	hitHot := func(when string) {
		t.Helper()
		for n := 0; n < hot; n++ {
			if op := keyOp(opGet, n); !m.step(op[0], op[1]) {
				t.Fatalf("%s: hot key %d is gone", when, n)
			}
		}
	}
	hitHot("full slab")
	for n := capacity; n < 5*capacity; n++ {
		if op := keyOp(opGet, n); m.step(op[0], op[1]) {
			t.Fatalf("one-shot key %d hit", n)
		}
		m.run(keyOp(opPut, n))
		if n%3 == 0 {
			hitHot(fmt.Sprintf("after one-shot %d", n))
		}
	}
	hitHot("after the scan")
	if n, evictions := m.c.usage(); n != capacity || evictions != 4*capacity {
		t.Fatalf("%d entries after %d evictions, want %d after %d", n, evictions, capacity, 4*capacity)
	}
}

// Entries stranded on a dead version are never looked up again, so the
// hand finds them unvisited and takes them before any live entry that
// is still being hit — even when they were visited while alive.
func TestCacheStrandedVersionsGoFirst(t *testing.T) {
	const capacity, n = 8, 4
	m := newCacheModel(t, capacity)
	fillAndHit := func() {
		for i := 0; i < n; i++ {
			m.run(keyOp(opPut, i))
			m.run(keyOp(opGet, i))
		}
	}
	fillAndHit() // version 1, visited
	m.run([]byte{opPublish, 0})
	fillAndHit() // version 2, visited: the slab is full
	for i := 0; i < n; i++ {
		m.run(keyOp(opPut, 8+i))
		for j := 0; j < n; j++ { // the live entries stay hot
			if op := keyOp(opGet, j); !m.step(op[0], op[1]) {
				t.Fatalf("fill %d evicted live key %d", i, j)
			}
		}
	}
	want := []string{"{[0] 1 0 1}", "{[1] 1 0 1}", "{[2] 1 0 1}", "{[3] 1 0 1}"}
	if !slices.Equal(m.evicted, want) {
		t.Fatalf("evicted %v, want the version-1 entries %v", m.evicted, want)
	}
}

// The cache's memory is its arena, slab and index whatever is asked of
// it: a million distinct fills allocate nothing, and the buffer an
// oversized answer needed goes when its slot is evicted.
func TestCacheMemoryBound(t *testing.T) {
	c := newQueryCache(DefaultCacheEntries)
	resp := search.Response{Postings: make([]search.Posting, slotPostings), Version: 1}
	terms := make([]int32, slotTerms)
	fill := func(i int) {
		terms[0], terms[1] = int32(i), int32(i>>16)
		resp.Postings[0].Page = int32(i)
		c.put(cacheKey{terms: terms, k: slotPostings, storeV: 1}, 0, &resp)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	fill(0)
	before := heap()
	for i := 1; i <= 1e6; i++ {
		fill(i)
	}
	if grew := heap() - before; grew > 1<<20 {
		t.Errorf("live heap grew %d bytes over 1e6 distinct fills", grew)
	}
	if n, _ := c.usage(); n != DefaultCacheEntries {
		t.Errorf("%d entries, want the capacity %d", n, DefaultCacheEntries)
	}

	big := search.Response{Postings: make([]search.Posting, 1000), Version: 1}
	bigKey := cacheKey{terms: []int32{7}, k: 1000, storeV: 1}
	c.put(bigKey, 0, &big)
	if i := c.find(bigKey.hash(), bigKey); i == none || len(c.slots[i].postings) != 1000 {
		t.Fatalf("k=1000 answer not held whole (slot %d)", i)
	}
	for i := 0; i < DefaultCacheEntries; i++ { // unvisited, it leaves in its turn
		fill(2e6 + i)
	}
	if c.find(bigKey.hash(), bigKey) != none {
		t.Fatal("k=1000 answer survived a slab's worth of fills")
	}
	for i := range c.slots {
		if e := &c.slots[i]; cap(e.postings) != slotPostings || cap(e.key.terms) != slotTerms {
			t.Fatalf("slot %d keeps buffers of %d postings and %d terms outside the arena", i, cap(e.postings), cap(e.key.terms))
		}
	}
}

// TestCacheConcurrent (under -race in make race) has eight goroutines
// look up, fill and outdate a small slab at once. An answer is a pure
// function of its key, so every hit can be held to a fresh compute.
func TestCacheConcurrent(t *testing.T) {
	const goroutines, rounds, capacity = 8, 4000, 32
	c := newQueryCache(capacity)
	compute := func(terms []int32, k int, storeV int64, resp *search.Response) {
		resp.Postings = resp.Postings[:0]
		for i := 0; i < k; i++ {
			resp.Postings = append(resp.Postings, search.Posting{Page: terms[0], Score: float64(storeV) + float64(i)})
		}
		resp.Version, resp.Staleness = storeV, int64(terms[0])
		resp.Cost = search.Cost{LookupHops: len(terms), Responses: k}
	}
	var version atomic.Int64
	version.Store(1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got, want search.Response
			for i := 0; i < rounds; i++ {
				// A skewed walk over 96 keys: three times the slab.
				n := (i*i + g) % 96
				terms := []int32{int32(n % 24), int32(n)}[:1+n%2]
				k, from := 1+n%3, g%2
				if i%97 == 96 {
					version.Add(1)
				}
				storeV := version.Load()
				compute(terms, k, storeV, &want)
				key := cacheKey{terms: terms, k: k, from: from, storeV: storeV}
				if hit, _ := c.get(key, 0, 0, &got); !hit {
					c.put(key, 0, &want)
					continue
				}
				if !slices.Equal(got.Postings, want.Postings) || got.Version != want.Version ||
					got.Staleness != want.Staleness || got.Cost != want.Cost {
					t.Errorf("goroutine %d: hit on %v k=%d v=%d returned %+v, computed %+v", g, terms, k, storeV, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	(&cacheModel{t: t, c: c}).check()
	hits, misses := c.stats()
	if hits == 0 || hits+misses != goroutines*rounds {
		t.Fatalf("%d hits + %d misses over %d lookups", hits, misses, goroutines*rounds)
	}
}

// FuzzQueryCache decodes its input as a slab capacity (1–8) and a script
// of lookups, fills, publishes and ticks, and runs it through the model.
func FuzzQueryCache(f *testing.F) {
	capacity, warm, requests := figure2()
	seed := append([]byte{byte(capacity - 1)}, warm...)
	for i := 0; i < len(requests); i += 2 { // a request is a lookup and, blindly, the fill
		seed = append(seed, requests[i], requests[i+1], requests[i]+opPut-opGet, requests[i+1])
	}
	f.Add(seed)
	// Scan: four hot keys re-hit between one-shot fills of every shape.
	scan := []byte{3}
	for n := 0; n < 64; n++ {
		scan = append(scan, keyOp(opPut, 4+n)...)
		scan = append(scan, keyOp(opGet, n%4)...)
		scan = append(scan, keyOp(opPut, n%4)...)
	}
	f.Add(scan)
	// Stranding, ticks between hits, a floor, an oversized answer.
	f.Add([]byte{1, opPut, 0, opGet, 0, opTick, 0, opGet, 0, opPublish, 0, opGet, 0,
		opPut + numOps, 0, opGetFloor, 0, opPut, 1, opPut, 2, opGetFloor + numOps, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		newCacheModel(t, 1+int(data[0]%8)).run(data[1:])
	})
}
