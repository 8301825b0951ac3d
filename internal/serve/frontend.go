package serve

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
)

// DefaultCacheEntries bounds the (terms, version) response cache when
// Config.CacheEntries is zero.
const DefaultCacheEntries = 1024

// Config parameterizes the query front end.
type Config struct {
	// Text is the synthetic text model the shard indexes are built
	// from — the same model the static search.Index uses.
	Text search.Config
	// CacheEntries bounds the merged-response cache: 0 means
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// Health, when set, reports per-shard reachability: unreachable
	// shards are skipped (partial merge, coverage reported), slow
	// shards are hedged to the replica snapshot. Nil assumes every
	// shard healthy.
	Health Health
	// Admission bounds accepted load; the zero value admits everything.
	Admission Admission
}

// retryAfterSeconds is the wait a shed query is told to take before
// retrying: the Retry-After header's whole-second minimum.
const retryAfterSeconds = 1

// errShed is the prebuilt shed error, so refusing a query under
// overload allocates nothing.
var errShed error = &search.OverloadError{RetryAfter: retryAfterSeconds}

// Frontend is the distributed-top-k query tier: one term-major index
// says which shards hold which terms and where in each shard, so a
// query's plan is also its scan's directions. It fans a query out to
// the shards that can match it, scores each shard's local intersection
// against that shard's current snapshot, and merges the partials with a
// bounded heap. Scores are NOT stored here — they come from the Store's
// snapshots at query time, which is what makes serving versioned.
// Every planned shard is consulted — it counts in Cost, Version and
// Staleness — but only one whose snapshot's best score could still
// enter the heap is scanned. Build it once; serve queries through
// per-goroutine Queriers.
type Frontend struct {
	text  search.Config
	ov    overlay.Network
	store *Store

	// pages[s] maps shard s's local index → global page id (the group's
	// Pages order, which is also the order snapshot Scores are indexed in).
	pages [][]int32
	// termOff[t]:termOff[t+1] brackets term t's entries, one per shard
	// holding a page with t; len = Vocabulary+1.
	termOff []int32
	// fanShards[j] is entry j's shard, ascending within a term — the
	// query planner's fan-out list.
	fanShards []int32
	// postOff[j]:postOff[j+1] brackets entry j's blocks;
	// len = len(fanShards)+1.
	postOff []int32
	// blocks hold each entry's shard-local pages 32 to a block, in
	// strictly ascending blk order within an entry, every mask nonzero.
	blocks []pageBlock
	// sig[j] is entry j's page signature, the OR of 1<<(local&31) over
	// its pages (so also of its masks): two entries of one shard whose
	// signatures share no bit share no page (exactly so on a shard of at
	// most 32 pages).
	sig []uint32
	// A term is dense when its fan-out list is long enough (denseTerm)
	// that a K-bit shard bitmap is no larger. Dense term t's bitmap is
	// bits[dense[t]:dense[t]+words], and rank there holds, per 64-shard
	// word, the index of the term's first entry at or past that word, so
	// its entry for shard s is a rank plus a popcount. dense[t] is -1
	// for a sparse term, which has only its fan-out list.
	dense []int32
	words int32
	bits  []uint64
	rank  []int32

	cache *queryCache

	health Health
	adm    Admission
	// over is the admission controller's list of shards over the
	// staleness bound, rebuilt on the first query after a store change.
	over atomic.Pointer[overList]

	shed     atomic.Int64
	hedged   atomic.Int64
	degraded atomic.Int64
}

// pageBlock is up to 32 of an entry's shard-local pages: bit i of mask
// is local page blk·32 + i.
type pageBlock struct {
	blk  int32
	mask uint32
}

// NewFrontend builds the term-major index from the crawl, the page
// partition, and the text model. The store provides scores at query
// time; assign must cover the graph and match the store's shard count.
func NewFrontend(g *webgraph.Graph, ov overlay.Network, assign *partition.Assignment, store *Store, cfg Config) (*Frontend, error) {
	tm, err := search.DrawTerms(g, cfg.Text)
	if err != nil {
		return nil, err
	}
	return NewFrontendFrom(tm, ov, assign, store, cfg)
}

// NewFrontendFrom is NewFrontend over an already drawn term matrix —
// for a caller that builds several frontends, or a frontend and a
// static search.Index, over one crawl. cfg.Text must be the model the
// matrix was drawn from.
func NewFrontendFrom(tm *search.TermMatrix, ov overlay.Network, assign *partition.Assignment, store *Store, cfg Config) (*Frontend, error) {
	text, err := cfg.Text.WithDefaults()
	if err != nil {
		return nil, err
	}
	if text != tm.Config() {
		return nil, fmt.Errorf("serve: term matrix drawn from text model %+v, config says %+v", tm.Config(), text)
	}
	pages := tm.Graph().NumPages()
	if assign == nil {
		return nil, fmt.Errorf("serve: frontend needs a page assignment")
	}
	if len(assign.GroupOf) != pages {
		return nil, fmt.Errorf("serve: assignment covers %d pages, want %d", len(assign.GroupOf), pages)
	}
	if assign.K != store.NumShards() {
		return nil, fmt.Errorf("serve: assignment has %d shards, store %d", assign.K, store.NumShards())
	}
	// Queries are routed over the overlay to each shard's ranker, so it
	// must hold one node per shard.
	if ov == nil {
		return nil, fmt.Errorf("serve: frontend needs an overlay")
	}
	if ov.NumNodes() != assign.K {
		return nil, fmt.Errorf("serve: overlay has %d nodes, assignment %d shards", ov.NumNodes(), assign.K)
	}
	if int64(pages)*int64(text.TermsPerPage) > math.MaxInt32 {
		return nil, fmt.Errorf("serve: %d pages of %d terms overflow the index's 32-bit offsets", pages, text.TermsPerPage)
	}
	f := &Frontend{
		text:    text,
		ov:      ov,
		store:   store,
		pages:   assign.Pages,
		termOff: make([]int32, text.Vocabulary+1),
	}
	// One count → prefix-sum → fill over the matrix in (shard, local)
	// order, which is every term's (entry, local) order: a term's blocks
	// fill left to right, an entry opens where its shard's first page
	// lands, and a block where a page's local/32 first differs from the
	// last one's. seen[t] is 1 + the last shard counted under t and
	// lastBlk[t] the block its last page fell in; nextBlk[t] counts t's
	// blocks, then is their fill cursor; termOff[t+1] counts t's entries,
	// nextEnt[t] is their fill cursor.
	v := text.Vocabulary
	scratch := make([]int32, 4*v)
	seen, lastBlk, nextBlk, nextEnt := scratch[:v], scratch[v:2*v], scratch[2*v:3*v], scratch[3*v:]
	for s, ps := range f.pages {
		for local, p := range ps {
			for _, t := range tm.Row(p) {
				if seen[t] != int32(s)+1 {
					seen[t] = int32(s) + 1
					lastBlk[t] = -1
					f.termOff[t+1]++
				}
				if b := int32(local >> 5); lastBlk[t] != b {
					lastBlk[t] = b
					nextBlk[t]++
				}
			}
		}
	}
	blocks := int32(0)
	for t := range nextBlk {
		nextEnt[t] = f.termOff[t]
		f.termOff[t+1] += f.termOff[t]
		blocks, nextBlk[t] = blocks+nextBlk[t], blocks
	}
	entries := f.termOff[text.Vocabulary]
	buf := make([]int32, 2*entries+1)
	f.fanShards, f.postOff = buf[:entries:entries], buf[entries:]
	f.postOff[entries] = blocks
	f.blocks = make([]pageBlock, blocks)
	f.sig = make([]uint32, entries)
	k := len(f.pages)
	f.words = int32((k + 63) / 64)
	f.dense = make([]int32, text.Vocabulary)
	denseWords := int32(0)
	for t := range f.dense {
		f.dense[t] = -1
		if denseTerm(f.termOff[t+1]-f.termOff[t], k) {
			f.dense[t] = denseWords
			denseWords += f.words
		}
	}
	f.bits = make([]uint64, denseWords)
	f.rank = make([]int32, denseWords)
	clear(seen)
	for s, ps := range f.pages {
		for local, p := range ps {
			for _, t := range tm.Row(p) {
				if seen[t] != int32(s)+1 {
					seen[t] = int32(s) + 1
					lastBlk[t] = -1
					f.fanShards[nextEnt[t]] = int32(s)
					f.postOff[nextEnt[t]] = nextBlk[t]
					nextEnt[t]++
					if at := f.dense[t]; at >= 0 {
						f.bits[at+int32(s>>6)] |= 1 << (s & 63)
					}
				}
				if b := int32(local >> 5); lastBlk[t] != b {
					lastBlk[t] = b
					f.blocks[nextBlk[t]].blk = b
					nextBlk[t]++
				}
				bit := uint32(1) << (local & 31)
				f.blocks[nextBlk[t]-1].mask |= bit
				f.sig[nextEnt[t]-1] |= bit
			}
		}
	}
	for t, at := range f.dense {
		if at < 0 {
			continue
		}
		j := f.termOff[t]
		for w := at; w < at+f.words; w++ {
			f.rank[w] = j
			j += int32(bits.OnesCount64(f.bits[w]))
		}
	}
	if cfg.CacheEntries >= 0 {
		n := cfg.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		f.cache = newQueryCache(n)
	}
	if err := cfg.Admission.validate(); err != nil {
		return nil, err
	}
	f.health = cfg.Health
	f.adm = cfg.Admission
	return f, nil
}

// denseTerm reports whether a term with entries fan-out entries over k
// shards keeps a shard bitmap: whether its k bits take no more room
// than its 4-byte-per-shard fan-out list, 32·entries ≥ k. It follows
// from the index alone, so there is nothing to tune.
func denseTerm(entries int32, k int) bool { return 32*int(entries) >= k }

// Store returns the snapshot store queries score against.
func (f *Frontend) Store() *Store { return f.store }

// CacheStats returns cumulative cache hits and misses (zero when
// caching is disabled).
func (f *Frontend) CacheStats() (hits, misses int64) {
	if f.cache == nil {
		return 0, 0
	}
	return f.cache.stats()
}

// CacheUsage returns how many responses the cache holds now and how
// many it has evicted to make room (zero when caching is disabled).
func (f *Frontend) CacheUsage() (entries int, evictions int64) {
	if f.cache == nil {
		return 0, 0
	}
	return f.cache.usage()
}

// DegradeStats are the frontend's cumulative robustness counters.
type DegradeStats struct {
	// Shed is how many queries admission control refused.
	Shed int64
	// Hedged is how many shard reads fell back to the replica snapshot.
	Hedged int64
	// Degraded is how many queries were answered with partial coverage.
	Degraded int64
}

// DegradeStats returns the robustness counters.
func (f *Frontend) DegradeStats() DegradeStats {
	return DegradeStats{
		Shed:     f.shed.Load(),
		Hedged:   f.hedged.Load(),
		Degraded: f.degraded.Load(),
	}
}

// overBound is the admission controller's staleness signal: whether
// some shard the fan-out can still reach is more than StalenessBound
// rounds behind. It walks the list of shards over the bound and asks
// Health about each until one is reachable; unreachable ones are
// excluded — their gap is lost coverage, not a reason to refuse the
// queries the healthy side can answer. Health is asked afresh every
// query, the list only when the store has changed (see overList).
//
//p2plint:hotpath
func (f *Frontend) overBound() bool {
	st := f.store
	// Loaded before the list's ticks are read, as in overShards.
	adv, inst := st.advances.Load(), st.installed.Load()
	l := f.over.Load()
	if l == nil || l.store != st || l.bound != f.adm.StalenessBound || l.advances != adv || l.installed != inst {
		l = f.overShards(adv, inst)
	}
	for _, s := range l.shards {
		if f.health == nil || f.health.ShardState(int(s)) != ShardUnreachable {
			return true
		}
	}
	return false
}

// overList is the shards over the staleness bound in one store state.
// A shard's ticks change only in Advance (the tick, then advances
// counted) and in install (ticks zeroed, then installed counted), so
// the counter pair read before the ticks names the state the list was
// taken in — up to an Advance or install caught between its two steps,
// the window settledVersion and the response cache already accept.
type overList struct {
	store               *Store
	bound               int64
	advances, installed int64
	shards              []int32
}

// overShards lists the shards over the bound now, filed under the
// counters the caller read first, and installs the list for the
// queries after it. Racing rebuilds each install a correct list; a
// query that finds an older one rebuilds again.
func (f *Frontend) overShards(advances, installed int64) *overList {
	//p2plint:allow hotalloc -- rebuilt once per store change, not per query
	l := &overList{store: f.store, bound: f.adm.StalenessBound, advances: advances, installed: installed}
	for i := range f.pages {
		if f.store.Staleness(i) > l.bound {
			l.shards = append(l.shards, int32(i))
		}
	}
	f.over.Store(l)
	return l
}

// Querier is a per-goroutine handle on the Frontend: it owns the
// scratch buffers (the plan's candidates and entry tuples, the scan's
// block cursors, the merge heap, hop memos) that make the steady-state read
// path allocation free. A Querier must not be shared between
// goroutines; the Frontend and Store it reads are safe for any number
// of concurrent Queriers.
type Querier struct {
	f    *Frontend
	heap topK
	// The current query's plan (see planShards): the candidate buffer,
	// the candidates' entry tuples, and a one-term query's base entry.
	cand []int32
	ent  []int32
	base int32
	// cur holds the scan's per-term block cursors.
	cur []int32
	// hopRows memoizes overlay hop counts per query origin: one dense
	// per-shard row per distinct Request.From, -1 = not routed yet.
	hopRows map[int][]int32
}

// NewQuerier creates an independent query handle.
func (f *Frontend) NewQuerier() *Querier {
	return &Querier{f: f, hopRows: make(map[int][]int32)}
}

// Serve answers req as search.Index.Serve does, with distributed
// conjunctive top-k over the current snapshots. The response's Version
// is the oldest snapshot version consulted, its Staleness the worst
// rounds-behind over the consulted shards, and its Cost the overlay
// lookup hops from req.From to each consulted shard plus one response
// message each.
// Results go into resp.Postings[:0]; with a warm Querier and a reused
// Response the steady-state path performs zero allocations.
//
// Every shard holding all the query's terms is consulted, in ascending
// order; what one costs is its health and snapshot reads, the posting
// ranges the plan already found, and a slot of the origin's hop row —
// no lookup of any kind. A consulted shard is scanned only when its
// snapshot's ceiling, its largest score, is not below the worst posting
// of a full heap; skipped or scanned, it counts in Cost, Version and
// Staleness alike, so the skip changes no Response field.
//
// Degraded mode (Config.Health set): unreachable shards are skipped
// and the lost coverage reported in resp.Coverage/Degraded instead of
// failing the query; slow shards are hedged to the replica snapshot
// with the extra rounds-behind folded into resp.Staleness. Admission
// (Config.Admission) sheds with ErrOverloaded before any per-query
// work. Both paths stay allocation free.
//
//p2plint:hotpath
func (q *Querier) Serve(req search.Request, resp *search.Response) error {
	f := q.f
	resp.Postings = resp.Postings[:0]
	resp.Version = 0
	resp.Staleness = 0
	resp.Cost = search.Cost{}
	resp.Coverage = 1
	resp.Degraded = false
	resp.Hedged = 0
	if err := req.Validate(f.text.Vocabulary); err != nil {
		return err
	}
	if n := f.ov.NumNodes(); req.From < 0 || req.From >= n {
		return fmt.Errorf("%w: from %d, overlay has %d nodes", search.ErrBadOrigin, req.From, n)
	}
	if f.adm.StalenessBound > 0 && f.overBound() {
		f.shed.Add(1)
		return errShed
	}
	// The cache is keyed by store version, and a version names a state
	// only while no publish is between minting it and installing its
	// snapshot: a query that lands in that window scans the previous
	// state. So the cache is consulted, and later filled, only by a query
	// that starts with the store settled.
	storeV, settled := f.store.settledVersion()
	if req.MinVersion > storeV {
		return fmt.Errorf("%w: store at version %d, want >= %d", search.ErrStaleIndex, storeV, req.MinVersion)
	}
	cached := f.cache != nil && settled
	// Read before any shard's ticks, by the hit path and the scan alike:
	// the staleness filed under this count is never older than it.
	advances := f.store.advances.Load()
	key := cacheKey{terms: req.Terms, k: req.K, from: req.From, storeV: storeV}
	if cached {
		hit, current := f.cache.get(key, req.MinVersion, advances, resp)
		if hit {
			if !current {
				// Rounds were committed since the entry's staleness was
				// taken. A cached answer consulted every planned shard, so
				// its staleness now is the worst of theirs: no snapshot is
				// read, nothing is scanned.
				resp.Staleness = 0
				for _, s := range q.planShards(req.Terms) {
					resp.Staleness = max(resp.Staleness, f.store.Staleness(int(s)))
				}
				f.cache.restamp(key, advances, resp.Staleness)
			}
			return nil
		}
	}

	cand := q.planShards(req.Terms)
	hopRow := q.hopRow(req.From)
	q.heap.reset(req.K)
	minVersion := int64(0)
	maxStale := int64(0)
	planned, missed := 0, 0
	for c, s := range cand {
		planned++
		state := ShardHealthy
		if f.health != nil {
			state = f.health.ShardState(int(s))
		}
		if state == ShardUnreachable {
			missed++
			continue
		}
		snap := f.store.Snapshot(int(s))
		if !f.fits(snap, s) {
			if f.health != nil {
				// Degraded mode treats a never-published shard, or a
				// snapshot that does not fit the shard, like an
				// unreachable one: lost coverage, not a failed query.
				missed++
				continue
			}
			if snap == nil {
				return fmt.Errorf("%w: shard %d has published no snapshot", search.ErrStaleIndex, s)
			}
			return fmt.Errorf("%w: shard %d snapshot has %d scores for %d pages", search.ErrStaleIndex, s, len(snap.Scores), len(f.pages[s]))
		}
		stale := f.store.Staleness(int(s))
		if state == ShardSlow {
			// The primary read would miss its deadline: hedge to the
			// replica snapshot. One publish older — the gap between the
			// two snapshots' rounds is real staleness and is accounted.
			// A shard published once has no replica yet: the primary is
			// read, and nothing was hedged.
			if prev := f.store.Replica(int(s)); prev != nil {
				if !f.fits(prev, s) {
					// Only Health makes a shard slow: a replica that does
					// not fit is lost coverage, like a primary.
					missed++
					continue
				}
				stale += snap.Round - prev.Round
				snap = prev
				resp.Hedged++
			}
		}
		if snap.Version < req.MinVersion {
			return fmt.Errorf("%w: shard %d at version %d, want >= %d", search.ErrStaleIndex, s, snap.Version, req.MinVersion)
		}
		if minVersion == 0 || snap.Version < minVersion {
			minVersion = snap.Version
		}
		if stale > maxStale {
			maxStale = stale
		}
		// A shard whose intersection comes out empty — by signature or by
		// block — or whose scan is skipped was still consulted: it counts
		// in Cost, Version and Staleness like any other. The scan is
		// skipped when the snapshot read (the replica, on a hedge) has its
		// ceiling strictly below a full heap's worst.
		if !q.heap.below(snap.ceiling) {
			q.scanShard(c, f.pages[s], snap.Scores, len(req.Terms))
		}
		h := hopRow[s]
		if h < 0 {
			routed, err := overlay.Hops(f.ov, req.From, f.ov.NodeID(int(s)))
			if err != nil {
				return err
			}
			h = int32(routed)
			hopRow[s] = h
		}
		resp.Cost.LookupHops += int(h)
		resp.Cost.Responses++
	}
	if missed > 0 {
		if missed == planned {
			// Nothing answered — there is no partial result to serve.
			return fmt.Errorf("%w: all %d planned shards unreachable or unpublished", search.ErrStaleIndex, planned)
		}
		resp.Coverage = float64(planned-missed) / float64(planned)
		resp.Degraded = true
		f.degraded.Add(1)
	}
	if resp.Hedged > 0 {
		f.hedged.Add(int64(resp.Hedged))
	}
	if minVersion == 0 {
		// No shard can match the conjunction: the answer is empty at
		// the store's current version.
		minVersion = storeV
	}
	resp.Version = minVersion
	resp.Staleness = maxStale
	resp.Postings = q.heap.drain(resp.Postings)
	if cached && !resp.Degraded && resp.Hedged == 0 && f.store.Version() == storeV {
		// Degraded and hedged answers are never cached: the cache key is
		// (query, store version), and under faults the same version no
		// longer implies the same response. Nor is an answer a publish
		// began under: no version minted since the settled start means
		// every snapshot scanned was the one storeV names.
		f.cache.put(key, advances, resp)
	}
	return nil
}

// fits reports whether snap is a published snapshot scoring exactly
// shard s's pages. The store takes score vectors of any length, and the
// scan indexes them by local page, so one that does not fit is refused.
//
//p2plint:hotpath
func (f *Frontend) fits(snap *ShardSnapshot, s int32) bool {
	return snap != nil && len(snap.Scores) == len(f.pages[s])
}

// planShards returns the shards that hold at least one page with EVERY
// query term, ascending — only those can contribute to a conjunctive
// match — and leaves in q where each one keeps each term's postings:
// candidate c's entry for terms[k] is q.ent[c*len(terms)+k], or
// q.base+c for a one-term query, whose candidates are the term's own
// fan-out list and need no copy. The filter is progressive from the
// rarest term's list: a shard that survives a term records its entry
// there, and its tuple moves down over the dropped candidates'. A dense
// term answers each candidate with a bit test (and a rank when set); a
// sparse one is merged against its fan-out list.
//
//p2plint:hotpath
func (q *Querier) planShards(terms []int32) []int32 {
	f := q.f
	best := 0
	for k, t := range terms {
		if f.termOff[t+1]-f.termOff[t] < f.termOff[terms[best]+1]-f.termOff[terms[best]] {
			best = k
		}
	}
	q.base = f.termOff[terms[best]]
	cand := f.fanShards[q.base:f.termOff[terms[best]+1]]
	w := len(terms)
	if w == 1 {
		return cand
	}
	if cap(q.ent) < w*len(cand) {
		//p2plint:allow hotalloc -- entry tuples grow to the querier's high-water mark, then reuse
		q.ent = make([]int32, w*len(cand))
	}
	ent := q.ent[:w*len(cand)]
	for c := range cand {
		ent[c*w+best] = q.base + int32(c)
	}
	// The first filter reads the index's list and writes q.cand; later
	// ones compact q.cand in place, the write never ahead of the read.
	dst := q.cand
	for k, t := range terms {
		if k == best || len(cand) == 0 {
			continue
		}
		dst = dst[:0]
		if at := f.dense[t]; at >= 0 {
			words, rank := f.bits[at:at+f.words], f.rank[at:at+f.words]
			for i, s := range cand {
				word, bit := words[s>>6], uint64(1)<<(s&63)
				if word&bit == 0 {
					continue
				}
				n := len(dst)
				dst = append(dst, s)
				copy(ent[n*w:n*w+w], ent[i*w:i*w+w])
				ent[n*w+k] = rank[s>>6] + int32(bits.OnesCount64(word&(bit-1)))
			}
			cand = dst
			continue
		}
		i, j, hi := 0, f.termOff[t], f.termOff[t+1]
		for i < len(cand) && j < hi {
			switch a, b := cand[i], f.fanShards[j]; {
			case a < b:
				i++
			case a > b:
				j++
			default:
				n := len(dst)
				dst = append(dst, a)
				copy(ent[n*w:n*w+w], ent[i*w:i*w+w])
				ent[n*w+k] = j
				i++
				j++
			}
		}
		cand = dst
	}
	q.cand = dst
	return cand
}

// scanShard intersects the query terms' pages within the plan's c-th
// candidate shard — straight from the entries the plan remembered — and
// offers every surviving page, scored from the shard's snapshot, to the
// merge heap. The entries' page signatures are ANDed first: if no bit
// survives, no page holds every term and no block is read. Otherwise
// the entry with the fewest blocks leads: each of its blocks is ANDed
// with the other entries' (andBlock), and the bits left are offered in
// ascending local order. A one-term query's lead is its only entry.
//
//p2plint:hotpath
func (q *Querier) scanShard(c int, pages []int32, scores []float64, w int) {
	f := q.f
	lead, ents := q.base+int32(c), []int32(nil)
	if w > 1 {
		ents = q.ent[c*w : c*w+w]
		sig := ^uint32(0)
		for _, j := range ents {
			sig &= f.sig[j]
		}
		if sig == 0 {
			return
		}
		if cap(q.cur) < w {
			//p2plint:allow hotalloc -- block cursors grow to the querier's widest query, then reuse
			q.cur = make([]int32, w)
		}
		lead = ents[0]
		for k, j := range ents {
			q.cur[k] = f.postOff[j]
			if f.postOff[j+1]-f.postOff[j] < f.postOff[lead+1]-f.postOff[lead] {
				lead = j
			}
		}
	}
	for _, b := range f.blocks[f.postOff[lead]:f.postOff[lead+1]] {
		mask := b.mask
		if ents != nil {
			var more bool
			if mask, more = q.andBlock(ents, lead, b); !more {
				return
			}
		}
		// The score is read first: a page strictly below a full heap's
		// worst is dropped without touching the shard's page table.
		for base := b.blk << 5; mask != 0; mask &= mask - 1 {
			local := base + int32(bits.TrailingZeros32(mask))
			if score := scores[local]; !q.heap.below(score) {
				q.heap.consider(search.Posting{Page: pages[local], Score: score})
			}
		}
	}
}

// andBlock returns the lead block b ANDed with the block at b.blk of
// every other entry in ents, each entry's cursor in q.cur moved forward
// to it. A missing block zeroes the mask; more is false once a cursor
// has run out, since no later lead block can match then. It is kept out
// of scanShard so the one-term loop stays tight.
//
//p2plint:hotpath
func (q *Querier) andBlock(ents []int32, lead int32, b pageBlock) (mask uint32, more bool) {
	f := q.f
	cur := q.cur[:len(ents)]
	mask = b.mask
	for k, j := range ents {
		if j == lead {
			continue
		}
		i, hi := cur[k], f.postOff[j+1]
		for i < hi && f.blocks[i].blk < b.blk {
			i++
		}
		if i == hi {
			return 0, false
		}
		cur[k] = i
		o := f.blocks[i]
		if o.blk != b.blk {
			return 0, true
		}
		if mask &= o.mask; mask == 0 {
			return 0, true
		}
	}
	return mask, true
}

// hopRow returns the memo of overlay hop counts from a query origin to
// every shard, -1 where not routed yet.
//
//p2plint:hotpath
func (q *Querier) hopRow(from int) []int32 {
	row := q.hopRows[from]
	if row == nil {
		//p2plint:allow hotalloc -- one hop row per query origin, reused across all queries
		row = make([]int32, len(q.f.pages))
		for i := range row {
			row[i] = -1
		}
		q.hopRows[from] = row
	}
	return row
}
