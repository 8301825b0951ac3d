package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"p2prank/internal/overlay"
	"p2prank/internal/par"
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

// shardIndex is one shard's inverted index: the terms present on the
// shard's pages, CSR-packed posting lists of ascending local page
// indices, and the local→global page mapping. Scores are NOT stored
// here — they come from the Store's current snapshot at query time,
// which is what makes serving versioned.
type shardIndex struct {
	// pages maps local index → global page id (the group's Pages
	// order, which is also the order snapshot Scores are indexed in).
	pages []int32
	// terms present on this shard, ascending.
	terms []int32
	// off[i]:off[i+1] brackets terms[i]'s locals; len = len(terms)+1.
	off []int32
	// locals are ascending local page indices per term.
	locals []int32
}

// postingsOf returns the shard-local posting range of term t, or an
// empty slice if the shard has no pages containing t.
//
//p2plint:hotpath
func (sh *shardIndex) postingsOf(t int32) []int32 {
	lo, hi := 0, len(sh.terms)
	for lo < hi {
		mid := (lo + hi) / 2
		if sh.terms[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(sh.terms) || sh.terms[lo] != t {
		return nil
	}
	return sh.locals[sh.off[lo]:sh.off[lo+1]]
}

// buildScratch is what building one shard index needs beyond its
// output, reused from shard to shard: next[t] is term t's page count,
// then its fill cursor (Vocabulary-sized, zero between shards); seen
// collects the terms present.
type buildScratch struct {
	next, seen []int32
}

// build fills the shard's CSR from the term matrix rows of sh.pages,
// into the preassigned sh.locals: count each term's pages, sort the
// terms present, prefix-sum, fill.
func (sh *shardIndex) build(tm *search.TermMatrix, sc *buildScratch) {
	next, seen := sc.next, sc.seen[:0]
	for _, p := range sh.pages {
		for _, t := range tm.Row(p) {
			if next[t] == 0 {
				seen = append(seen, t)
			}
			next[t]++
		}
	}
	slices.Sort(seen)
	// terms and off, exact-sized, in one allocation.
	buf := make([]int32, 2*len(seen)+1)
	sh.terms, sh.off = buf[:len(seen):len(seen)], buf[len(seen):]
	copy(sh.terms, seen)
	at := int32(0)
	for i, t := range seen {
		sh.off[i] = at
		at, next[t] = at+next[t], at
	}
	sh.off[len(seen)] = at
	for local, p := range sh.pages {
		for _, t := range tm.Row(p) {
			sh.locals[next[t]] = int32(local)
			next[t]++
		}
	}
	for _, t := range seen {
		next[t] = 0
	}
	sc.seen = seen
}

// Frontend is the distributed-top-k query tier: it knows which shards
// hold which terms, fans a query out to the shards that can match it,
// scores each shard's local intersection against that shard's current
// snapshot, and merges the partials with a bounded heap. Build it
// once; serve queries through per-goroutine Queriers.
type Frontend struct {
	text  search.Config
	ov    overlay.Network
	store *Store

	shards []shardIndex
	// termShards[t] lists the shards holding at least one page with
	// term t, ascending — the query planner's fan-out map.
	termShards [][]int32

	cache *queryCache

	health Health
	adm    Admission
	// overloadErr is the prebuilt shed error, so refusing a query under
	// overload allocates nothing either.
	overloadErr error

	inflight atomic.Int64
	shed     atomic.Int64
	hedged   atomic.Int64
	degraded atomic.Int64

	// routeMu serializes lazy overlay route lookups: queriers memoize
	// hop counts per (origin, shard) and only route on cold entries.
	routeMu sync.Mutex
}

// NewFrontend builds the shard indexes from the crawl, the page
// partition, and the text model. The store provides scores at query
// time; assign must cover the graph and match the store's shard count.
func NewFrontend(g webgraph.Store, ov overlay.Network, assign *partition.Assignment, store *Store, cfg Config) (*Frontend, error) {
	tm, err := search.DrawTerms(g, cfg.Text)
	if err != nil {
		return nil, err
	}
	return NewFrontendFrom(tm, ov, assign, store, cfg)
}

// buildShards is how many parallel ranges the K shard indexes are
// split into (fixed, so the split never depends on the worker count);
// each carries one buildScratch.
const buildShards = 16

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
	f := &Frontend{
		text:       text,
		ov:         ov,
		store:      store,
		shards:     make([]shardIndex, assign.K),
		termShards: make([][]int32, text.Vocabulary),
	}
	// Every shard's locals are an exact span of one backing array, and
	// the spans' offsets split the shards into posting-balanced ranges
	// to build in parallel.
	off := make([]int64, assign.K+1)
	for s, pages := range assign.Pages {
		off[s+1] = off[s] + int64(len(pages)*text.TermsPerPage)
	}
	locals := make([]int32, off[assign.K])
	bounds := par.SplitPrefix(off, buildShards)
	par.Default().Run(len(bounds)-1, func(b int) {
		sc := buildScratch{next: make([]int32, text.Vocabulary)}
		for s := bounds[b]; s < bounds[b+1]; s++ {
			sh := &f.shards[s]
			sh.pages = assign.Pages[s]
			sh.locals = locals[off[s]:off[s+1]:off[s+1]]
			sh.build(tm, &sc)
		}
	})
	// The fan-out map, the same way: count the shards per term, carve
	// the backing array, fill in shard order (so lists come out
	// ascending).
	total := 0
	count := make([]int32, text.Vocabulary)
	for s := range f.shards {
		total += len(f.shards[s].terms)
		for _, t := range f.shards[s].terms {
			count[t]++
		}
	}
	fanout := make([]int32, total)
	at := 0
	for t, n := range count {
		f.termShards[t] = fanout[at : at : at+int(n)]
		at += int(n)
	}
	for s := range f.shards {
		for _, t := range f.shards[s].terms {
			f.termShards[t] = append(f.termShards[t], int32(s))
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
	if f.adm.RetryAfterSeconds == 0 {
		f.adm.RetryAfterSeconds = 1
	}
	f.overloadErr = &search.OverloadError{RetryAfter: f.adm.RetryAfterSeconds}
	return f, nil
}

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

// reachableStaleness is the admission controller's staleness signal:
// the worst rounds-behind over the shards the fan-out can still reach.
// Unreachable shards are excluded — their gap is lost coverage, not a
// reason to refuse the queries the healthy side can answer.
//
//p2plint:hotpath
func (f *Frontend) reachableStaleness() int64 {
	var max int64
	for i := range f.shards {
		if f.health != nil && f.health.ShardState(i) == ShardUnreachable {
			continue
		}
		if t := f.store.Staleness(i); t > max {
			max = t
		}
	}
	return max
}

// Querier is a per-goroutine handle on the Frontend: it owns the
// scratch buffers (candidate sets, intersection buffers, the merge
// heap, hop memos) that make the steady-state read path allocation
// free. A Querier must not be shared between goroutines; the Frontend
// and Store it reads are safe for any number of concurrent Queriers.
type Querier struct {
	f      *Frontend
	heap   topK
	cand   []int32
	candB  []int32
	inter  []int32
	interB []int32
	// hopRows memoizes overlay hop counts per query origin: one dense
	// per-shard row per distinct Request.From, -1 = not routed yet.
	hopRows map[int][]int32
}

// NewQuerier creates an independent query handle.
func (f *Frontend) NewQuerier() *Querier {
	return &Querier{f: f, hopRows: make(map[int][]int32)}
}

// Serve implements search.Server: distributed conjunctive top-k over
// the current snapshots. The response's Version is the oldest snapshot
// version consulted, its Staleness the worst rounds-behind over the
// consulted shards, and its Cost the overlay lookup hops from
// req.From to each consulted shard plus one response message each.
// Results go into resp.Postings[:0]; with a warm Querier and a reused
// Response the steady-state path performs zero allocations.
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
	if f.adm.enabled() {
		if f.adm.MaxInflight > 0 {
			if n := f.inflight.Add(1); n > f.adm.MaxInflight {
				f.inflight.Add(-1)
				f.shed.Add(1)
				return f.overloadErr
			}
			defer f.inflight.Add(-1)
		}
		if f.adm.StalenessBound > 0 && f.reachableStaleness() > f.adm.StalenessBound {
			f.shed.Add(1)
			return f.overloadErr
		}
	}
	storeV := f.store.Version()
	if req.MinVersion > storeV {
		return fmt.Errorf("%w: store at version %d, want >= %d", search.ErrStaleIndex, storeV, req.MinVersion)
	}
	if f.cache != nil && f.cache.get(req.Terms, req.K, req.From, req.MinVersion, storeV, resp) {
		return nil
	}

	cand := q.planShards(req.Terms)
	q.heap.reset(req.K)
	minVersion := int64(0)
	maxStale := int64(0)
	planned, missed := 0, 0
	for _, s := range cand {
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
		if snap == nil {
			if f.health != nil {
				// Degraded mode treats a never-published shard like an
				// unreachable one: lost coverage, not a failed query.
				missed++
				continue
			}
			return fmt.Errorf("%w: shard %d has published no snapshot", search.ErrStaleIndex, s)
		}
		stale := f.store.Staleness(int(s))
		if state == ShardSlow {
			// The primary read would miss its deadline: hedge to the
			// replica snapshot. One publish older — the gap between the
			// two snapshots' rounds is real staleness and is accounted.
			if prev := f.store.Replica(int(s)); prev != nil {
				stale += snap.Round - prev.Round
				snap = prev
			}
			resp.Hedged++
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
		q.scanShard(s, snap, req.Terms)
		h, err := q.hops(req.From, s)
		if err != nil {
			return err
		}
		resp.Cost.LookupHops += h
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
	if f.cache != nil && !resp.Degraded && resp.Hedged == 0 {
		// Degraded and hedged answers are never cached: the cache key is
		// (query, store version), and under faults the same version no
		// longer implies the same response.
		f.cache.put(req.Terms, req.K, req.From, storeV, resp)
	}
	return nil
}

// planShards intersects the per-term shard lists (smallest first) into
// the set of shards that hold at least one page with EVERY query term
// — only those can contribute to a conjunctive match.
//
//p2plint:hotpath
func (q *Querier) planShards(terms []int32) []int32 {
	f := q.f
	// Start from the rarest term's shard list.
	best := 0
	for i := 1; i < len(terms); i++ {
		if len(f.termShards[terms[i]]) < len(f.termShards[terms[best]]) {
			best = i
		}
	}
	cur := f.termShards[terms[best]]
	if len(terms) == 1 {
		return cur
	}
	// Double-buffered progressive intersection: cur always lives in
	// the buffer we are NOT about to write.
	a, b := q.cand, q.candB
	for i, t := range terms {
		if i == best {
			continue
		}
		a = intersect32(a[:0], cur, f.termShards[t])
		cur = a
		a, b = b, a
		if len(cur) == 0 {
			break
		}
	}
	q.cand, q.candB = a, b
	return cur
}

// intersect32 merges two ascending lists into dst (append semantics).
//
//p2plint:hotpath
func intersect32(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// scanShard intersects the query terms' posting lists within one shard
// and offers every surviving page, scored from the shard's snapshot,
// to the merge heap.
//
//p2plint:hotpath
func (q *Querier) scanShard(s int32, snap *ShardSnapshot, terms []int32) {
	sh := &q.f.shards[s]
	cur := sh.postingsOf(terms[0])
	for i := 1; i < len(terms) && len(cur) > 0; i++ {
		next := sh.postingsOf(terms[i])
		dst := q.inter[:0]
		dst = intersect32(dst, cur, next)
		q.inter, q.interB = q.interB, dst
		cur = dst
	}
	for _, local := range cur {
		q.heap.consider(search.Posting{Page: sh.pages[local], Score: snap.Scores[local]})
	}
}

// hops returns the memoized overlay hop count from the query origin to
// a shard, routing on first use.
//
//p2plint:hotpath
func (q *Querier) hops(from int, shard int32) (int, error) {
	row := q.hopRows[from]
	if row == nil {
		//p2plint:allow hotalloc -- one hop row per query origin, reused across all queries
		row = make([]int32, len(q.f.shards))
		for i := range row {
			row[i] = -1
		}
		q.hopRows[from] = row
	}
	if h := row[shard]; h >= 0 {
		return int(h), nil
	}
	q.f.routeMu.Lock()
	h, err := overlay.Hops(q.f.ov, from, q.f.ov.NodeID(int(shard)))
	q.f.routeMu.Unlock()
	if err != nil {
		return 0, err
	}
	row[shard] = int32(h)
	return h, nil
}
