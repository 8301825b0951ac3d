package serve_test

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/telemetry"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

type fixture struct {
	g      *webgraph.Graph
	ranks  vecmath.Vec
	ov     overlay.Network
	assign *partition.Assignment
	store  *serve.Store
	fe     *serve.Frontend
	text   search.Config
}

// newFixture ranks a deterministic crawl, shards it over k rankers,
// publishes every shard's rank slice as a version-1-per-shard
// snapshot, and builds the query frontend on top.
func newFixture(t testing.TB, pages, k, cacheEntries int) *fixture {
	t.Helper()
	text := search.DefaultConfig()
	text.Vocabulary = 500
	text.TermsPerPage = 8
	return newFixtureAs(t, pages, k, cacheEntries, partition.BySite, text)
}

// newFixtureAs is newFixture with the partition strategy and text model
// chosen: by-site shards are few and large, by-page ones many and small.
func newFixtureAs(t testing.TB, pages, k, cacheEntries int, by partition.Strategy, text search.Config) *fixture {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 3
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, by, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := serve.NewStore(k)
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, store, assign, res.Ranks, 1)
	fe, err := serve.NewFrontend(g, ov, assign, store, serve.Config{Text: text, CacheEntries: cacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, ranks: res.Ranks, ov: ov, assign: assign, store: store, fe: fe, text: text}
}

// publishAll pushes each shard's local slice of the global rank vector
// into the store at the given round.
func publishAll(t testing.TB, store *serve.Store, assign *partition.Assignment, ranks vecmath.Vec, round int64) {
	t.Helper()
	for s := 0; s < assign.K; s++ {
		local := make([]float64, len(assign.Pages[s]))
		for i, p := range assign.Pages[s] {
			local[i] = ranks[p]
		}
		if _, err := store.Publish(s, round, local); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrontendMatchesStaticIndex is the distributed-top-k correctness
// anchor: with every shard publishing the same rank vector the static
// index was built from, the merged per-shard partials must equal the
// static index's global answer, ties included.
func TestFrontendMatchesStaticIndex(t *testing.T) {
	f := newFixture(t, 1500, 8, -1)
	ix, err := search.Build(f.g, f.ranks, f.ov, f.assign, f.text)
	if err != nil {
		t.Fatal(err)
	}
	q := f.fe.NewQuerier()
	var got, want search.Response
	queries := [][]int32{{0}, {1, 2}, {0, 1, 2}, {5, 17}, {480, 481, 482}, {3}}
	for _, terms := range queries {
		req := search.Request{Terms: terms, K: 10, From: 0}
		if err := q.Serve(req, &got); err != nil {
			t.Fatalf("query %v: %v", terms, err)
		}
		if err := ix.Serve(req, &want); err != nil {
			t.Fatalf("static query %v: %v", terms, err)
		}
		if !slices.Equal(got.Postings, want.Postings) {
			t.Fatalf("query %v: %+v, static index %+v", terms, got.Postings, want.Postings)
		}
	}
	t.Run("Fanout", matchesReferenceAtFanout)
}

// matchesReferenceAtFanout is the same anchor in the fan-out regime —
// the benchmark's 1000 shards of 20 pages hashed by page, a popular
// term on nearly every shard — and on the whole Response: 1200 random
// queries against a reference that scans every shard the plain way,
// shards at different versions and staleness, from four origins.
func matchesReferenceAtFanout(t *testing.T) {
	const k = 1000
	f := newFixtureAs(t, 20*k, k, -1, partition.ByPage, search.DefaultConfig())
	ix, err := search.Build(f.g, f.ranks, f.ov, f.assign, f.text)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := search.DrawTerms(f.g, f.text)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	for s := 0; s < k; s++ {
		for i := rng.Intn(4); i > 0; i-- {
			f.store.Advance(s)
		}
	}
	// held[s] is the set of terms on shard s's pages.
	held := make([]map[int32]bool, k)
	for s, pages := range f.assign.Pages {
		held[s] = make(map[int32]bool)
		for _, p := range pages {
			for _, t := range tm.Row(p) {
				held[s][t] = true
			}
		}
	}
	hops := make(map[[2]int]int) // routed once per (origin, shard)
	// reference consults, in shard order, every shard holding each term
	// on some page, and ranks the pages holding all of them.
	reference := func(req search.Request) search.Response {
		want := search.Response{Coverage: 1}
		for s, pages := range f.assign.Pages {
			if slices.ContainsFunc(req.Terms, func(t int32) bool { return !held[s][t] }) {
				continue
			}
			snap := f.store.Snapshot(s)
			for local, p := range pages {
				if !slices.ContainsFunc(req.Terms, func(t int32) bool { return !slices.Contains(tm.Row(p), t) }) {
					want.Postings = append(want.Postings, search.Posting{Page: p, Score: snap.Scores[local]})
				}
			}
			route := [2]int{req.From, s}
			if _, ok := hops[route]; !ok {
				if hops[route], err = overlay.Hops(f.ov, req.From, f.ov.NodeID(s)); err != nil {
					t.Fatal(err)
				}
			}
			want.Cost.LookupHops += hops[route]
			want.Cost.Responses++
			if want.Version == 0 || snap.Version < want.Version {
				want.Version = snap.Version
			}
			want.Staleness = max(want.Staleness, f.store.Staleness(s))
		}
		if want.Version == 0 {
			want.Version = f.store.Version()
		}
		slices.SortFunc(want.Postings, func(a, b search.Posting) int {
			return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Page, b.Page))
		})
		want.Postings = want.Postings[:min(req.K, len(want.Postings))]
		return want
	}
	q := f.fe.NewQuerier()
	var got, static search.Response
	matched, empty := 0, 0
	for n := 0; n < 1200; n++ {
		terms := make([]int32, 1+rng.Intn(3))
		for i := range terms {
			u := rng.Float64()
			u *= u
			terms[i] = int32(u * u * float64(f.text.Vocabulary))
		}
		req := search.Request{Terms: terms, K: []int{1, 10, 50}[rng.Intn(3)], From: []int{0, 1, 500, k - 1}[rng.Intn(4)]}
		if err := q.Serve(req, &got); err != nil {
			t.Fatalf("query %+v: %v", req, err)
		}
		want := reference(req)
		if len(got.Postings) == 0 {
			got.Postings = nil
			empty++
		} else {
			matched++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: %+v, reference scan %+v", req, got, want)
		}
		if err := ix.Serve(req, &static); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Postings, static.Postings) {
			t.Fatalf("query %+v: %+v, static index %+v", req, got.Postings, static.Postings)
		}
	}
	if matched < 300 || empty < 30 {
		t.Fatalf("%d queries matched, %d came back empty: the draw misses a case", matched, empty)
	}
}

func TestServeVersionAndStaleness(t *testing.T) {
	f := newFixture(t, 800, 8, -1)
	q := f.fe.NewQuerier()
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 5}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version < 1 || resp.Version > int64(f.store.NumShards()) {
		t.Fatalf("initial version %d outside first publish wave", resp.Version)
	}
	if resp.Staleness != 0 {
		t.Fatalf("fresh snapshots served with staleness %d", resp.Staleness)
	}
	// Three committed-but-unpublished rounds on every shard: any
	// consulted shard now reports 3 rounds behind.
	for s := 0; s < f.store.NumShards(); s++ {
		for i := 0; i < 3; i++ {
			f.store.Advance(s)
		}
	}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Staleness != 3 {
		t.Fatalf("staleness = %d after 3 unpublished rounds, want 3", resp.Staleness)
	}
	// Republishing resets staleness and advances every version.
	before := resp.Version
	publishAll(t, f.store, f.assign, f.ranks, 4)
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Staleness != 0 {
		t.Fatalf("staleness = %d after republish, want 0", resp.Staleness)
	}
	if resp.Version <= before {
		t.Fatalf("version %d did not advance past %d after republish", resp.Version, before)
	}
	// MinVersion beyond the store is a typed staleness error;
	// MinVersion at the served version succeeds.
	req.MinVersion = f.store.Version() + 1
	if err := q.Serve(req, &resp); !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("future MinVersion: err = %v, want ErrStaleIndex", err)
	}
	req.MinVersion = resp.Version
	if err := q.Serve(req, &resp); err != nil {
		t.Fatalf("satisfiable MinVersion rejected: %v", err)
	}
}

func TestServeUnpublishedStoreIsStale(t *testing.T) {
	f := newFixture(t, 500, 4, -1)
	empty, err := serve.NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := serve.NewFrontend(f.g, f.ov, f.assign, empty, serve.Config{Text: f.text, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var resp search.Response
	err = fe.NewQuerier().Serve(search.Request{Terms: []int32{0}, K: 3}, &resp)
	if !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("query before any publish: err = %v, want ErrStaleIndex", err)
	}
}

func TestServeValidation(t *testing.T) {
	f := newFixture(t, 300, 4, -1)
	q := f.fe.NewQuerier()
	var resp search.Response
	if err := q.Serve(search.Request{K: 3}, &resp); err == nil {
		t.Error("empty query accepted")
	}
	if err := q.Serve(search.Request{Terms: []int32{0}}, &resp); err == nil {
		t.Error("k=0 accepted")
	}
	if err := q.Serve(search.Request{Terms: []int32{9999}, K: 3}, &resp); !errors.Is(err, search.ErrUnknownTerm) {
		t.Errorf("out-of-vocabulary term: err = %v, want ErrUnknownTerm", err)
	}
}

// A query's K is the client's, so it must not size anything by itself:
// the merge heap grows only with the postings it keeps. A K of 1<<20 on
// the 300-page tier used to reserve a heap of a million postings,
// 16 MB, before the first shard was scanned.
func TestHugeKAllocatesByPostings(t *testing.T) {
	f := newFixture(t, 300, 4, -1)
	ix, err := search.Build(f.g, f.ranks, f.ov, f.assign, f.text)
	if err != nil {
		t.Fatal(err)
	}
	req := search.Request{Terms: []int32{0}, K: 1 << 20}
	var got, want search.Response
	q := f.fe.NewQuerier()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := q.Serve(req, &got); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("a K = %d query returning %d postings allocated %d bytes, want under 1 MB", req.K, len(got.Postings), n)
	}
	if err := ix.Serve(req, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Postings) == 0 || !slices.Equal(got.Postings, want.Postings) {
		t.Fatalf("K = %d: %d postings, static index %d", req.K, len(got.Postings), len(want.Postings))
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	f := newFixture(t, 800, 8, 64)
	q := f.fe.NewQuerier()
	var first, second search.Response
	req := search.Request{Terms: []int32{0, 1}, K: 10}
	if err := q.Serve(req, &first); err != nil {
		t.Fatal(err)
	}
	if err := q.Serve(req, &second); err != nil {
		t.Fatal(err)
	}
	hits, misses := f.fe.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if len(first.Postings) != len(second.Postings) {
		t.Fatalf("cached response differs: %d vs %d postings", len(first.Postings), len(second.Postings))
	}
	for i := range first.Postings {
		if first.Postings[i] != second.Postings[i] {
			t.Fatalf("cached posting %d: %+v vs %+v", i, first.Postings[i], second.Postings[i])
		}
	}
	if first.Version != second.Version || first.Staleness != second.Staleness || first.Cost != second.Cost {
		t.Fatal("cached response metadata differs from computed one")
	}
	// A publish mints a new store version, so the same query recomputes.
	publishAll(t, f.store, f.assign, f.ranks, 2)
	if err := q.Serve(req, &second); err != nil {
		t.Fatal(err)
	}
	if _, misses2 := f.fe.CacheStats(); misses2 != 2 {
		t.Fatalf("misses = %d after version bump, want 2 (cache must invalidate)", misses2)
	}
	if second.Version <= first.Version {
		t.Fatalf("post-publish version %d not newer than %d", second.Version, first.Version)
	}
}

// A cached answer's version cannot change while its key is live, but its
// staleness can: Store.Advance ages a shard without minting a version.
// A hit reports the staleness of now, not of the fill.
func TestCacheHitReportsCurrentStaleness(t *testing.T) {
	f := newFixture(t, 300, 4, 0)
	q := f.fe.NewQuerier()
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 5}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Staleness != 0 {
		t.Fatalf("fresh publish served at staleness %d", resp.Staleness)
	}
	for round := 0; round < 2; round++ {
		for s := 0; s < f.store.NumShards(); s++ {
			f.store.Advance(s)
		}
	}
	version := resp.Version
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if hits, _ := f.fe.CacheStats(); hits != 1 {
		t.Fatalf("second query: %d hits, want the cached answer", hits)
	}
	if resp.Staleness != 2 || resp.Version != version {
		t.Fatalf("hit two rounds on: staleness %d at version %d, want 2 at version %d", resp.Staleness, resp.Version, version)
	}
}

// Over a random sequence of ticks, publishes and queries, a frontend
// with the cache on answers every query exactly as one with it off
// does — every field of the Response, Staleness included.
func TestCacheHitEqualsUncached(t *testing.T) {
	f := newFixture(t, 600, 6, 0)
	plain, err := serve.NewFrontend(f.g, f.ov, f.assign, f.store, serve.Config{Text: f.text, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached := f.fe.NewQuerier(), plain.NewQuerier()
	queries := [][]int32{{0}, {1}, {0, 1}, {2, 3}, {499}, {5, 17, 40}}
	rng := xrand.New(29)
	round := int64(1)
	var got, want search.Response
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(40); {
		case op == 0:
			s := rng.Intn(f.assign.K)
			round++
			local := make([]float64, len(f.assign.Pages[s]))
			for j, p := range f.assign.Pages[s] {
				local[j] = f.ranks[p] * float64(round)
			}
			if _, err := f.store.Publish(s, round, local); err != nil {
				t.Fatal(err)
			}
		case op < 10:
			f.store.Advance(rng.Intn(f.assign.K))
		default:
			req := search.Request{Terms: queries[rng.Intn(len(queries))], K: 1 + rng.Intn(2)*9, From: rng.Intn(2)}
			if err := cached.Serve(req, &got); err != nil {
				t.Fatal(err)
			}
			if err := uncached.Serve(req, &want); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Postings, want.Postings) {
				t.Fatalf("step %d, %+v: cached postings %v, uncached %v", i, req, got.Postings, want.Postings)
			}
			got.Postings, want.Postings = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, %+v: cached %+v, uncached %+v", i, req, got, want)
			}
		}
	}
	if hits, misses := f.fe.CacheStats(); hits < 500 || misses < 100 {
		t.Fatalf("%d hits, %d misses: the sequence exercised too little of the cache", hits, misses)
	}
}

func TestCacheDisabled(t *testing.T) {
	f := newFixture(t, 300, 4, -1)
	q := f.fe.NewQuerier()
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 5}
	for i := 0; i < 3; i++ {
		if err := q.Serve(req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := f.fe.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded %d hits / %d misses", hits, misses)
	}
}

// TestPublisherSeam drives the dprcore Checkpointer path: DPRS bytes
// in, published snapshot out, original bytes teed to the next sink.
func TestPublisherSeam(t *testing.T) {
	store, err := serve.NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	mem := dprcore.NewMemCheckpointer()
	pub := serve.NewPublisher(store, mem)
	scores := []float64{0.5, 0.25, 0.125}
	data := dprcore.EncodeRankSnapshot(nil, 2, 7, scores)
	if err := pub.Save(2, 7, data); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot(2)
	if snap == nil || snap.Round != 7 || snap.Version != 1 {
		t.Fatalf("published snapshot = %+v", snap)
	}
	for i, v := range scores {
		if snap.Scores[i] != v {
			t.Fatalf("score[%d] = %v, want %v", i, snap.Scores[i], v)
		}
	}
	if _, round, ok := mem.Load(2); !ok || round != 7 {
		t.Fatalf("tee sink: ok=%v round=%d", ok, round)
	}
	// A snapshot belonging to a different group must be refused.
	if err := pub.Save(1, 7, data); err == nil {
		t.Fatal("group-mismatched snapshot accepted")
	}
	if err := pub.Save(3, 1, []byte("garbage")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestTrackerStalenessAccounting(t *testing.T) {
	store, err := serve.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	tr := serve.NewTracker(store, nil)
	for round := int64(1); round <= 3; round++ {
		tr.ComputeEnd(0, round, telemetry.ComputeStats{})
	}
	if st := store.Staleness(0); st != 3 {
		t.Fatalf("staleness = %d after 3 rounds, want 3", st)
	}
	if tr.MaxObservedStaleness() != 3 {
		t.Fatalf("max observed = %d, want 3", tr.MaxObservedStaleness())
	}
	if _, err := store.Publish(0, 3, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if st := store.Staleness(0); st != 0 {
		t.Fatalf("staleness = %d after publish, want 0", st)
	}
	if tr.MaxObservedStaleness() != 3 {
		t.Fatal("max observed staleness must be monotone")
	}
	// Rankers beyond the serving tier are ignored, not a panic.
	tr.ComputeEnd(99, 1, telemetry.ComputeStats{})
}

// hookLog is an Observer that records the name of every hook it gets.
type hookLog struct{ seen []string }

func (h *hookLog) ComputeStart(int, int64)             { h.seen = append(h.seen, "ComputeStart") }
func (h *hookLog) ChunkSent(int, telemetry.ChunkStats) { h.seen = append(h.seen, "ChunkSent") }
func (h *hookLog) ChunkRetried(int, int, int)          { h.seen = append(h.seen, "ChunkRetried") }
func (h *hookLog) AckReceived(int, int, int64)         { h.seen = append(h.seen, "AckReceived") }
func (h *hookLog) Recovered(int, int64)                { h.seen = append(h.seen, "Recovered") }
func (h *hookLog) Milestone(telemetry.Milestone)       { h.seen = append(h.seen, "Milestone") }
func (h *hookLog) ComputeEnd(int, int64, telemetry.ComputeStats) {
	h.seen = append(h.seen, "ComputeEnd")
}
func (h *hookLog) FaultInjected(int, telemetry.FaultKind) {
	h.seen = append(h.seen, "FaultInjected")
}

type fixedClock float64

func (c fixedClock) Now() float64 { return float64(c) }

// The Tracker intercepts ComputeEnd and nothing else: every hook still
// reaches the observer behind it, and telemetry.Attach reaches a
// collector through it.
func TestTrackerForwardsToNext(t *testing.T) {
	store, err := serve.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	log := &hookLog{}
	var obs telemetry.Observer = serve.NewTracker(store, log)
	obs.ComputeStart(0, 1)
	obs.ComputeEnd(0, 1, telemetry.ComputeStats{})
	obs.ChunkSent(0, telemetry.ChunkStats{Dst: 1})
	obs.FaultInjected(0, telemetry.FaultDrop)
	obs.ChunkRetried(0, 1, 1)
	obs.AckReceived(0, 1, 1)
	obs.Recovered(0, 1)
	obs.Milestone(telemetry.Milestone{})
	want := []string{"ComputeStart", "ComputeEnd", "ChunkSent", "FaultInjected",
		"ChunkRetried", "AckReceived", "Recovered", "Milestone"}
	if !slices.Equal(log.seen, want) {
		t.Fatalf("next observer saw %v, want %v", log.seen, want)
	}
	if store.Staleness(0) != 1 {
		t.Fatalf("ComputeEnd did not tick the store: staleness %d", store.Staleness(0))
	}

	col := telemetry.NewCollector(2)
	obs = serve.NewTracker(store, col)
	telemetry.Attach(obs, fixedClock(42), func(src, dst int) int { return 7 })
	obs.ChunkSent(0, telemetry.ChunkStats{Dst: 1})
	if sum := col.Summary(); sum.ChunkHops != 7 || sum.FirstEvent != 42 {
		t.Fatalf("Attach did not reach the collector behind the Tracker: hops %d, first event %v",
			sum.ChunkHops, sum.FirstEvent)
	}
	// With nothing behind it the Tracker still answers every hook.
	telemetry.Attach(serve.NewTracker(store, nil), fixedClock(1), nil)
	serve.NewTracker(store, nil).ChunkSent(0, telemetry.ChunkStats{})
}

func TestHTTPHandler(t *testing.T) {
	f := newFixture(t, 500, 4, 0)
	srv := httptest.NewServer(serve.NewHandler(f.fe, 5, nil).Mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/search?terms=0,1&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body struct {
		Version   int64 `json:"version"`
		Staleness int64 `json:"staleness"`
		Postings  []struct {
			Page  int32   `json:"page"`
			Score float64 `json:"score"`
		} `json:"postings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Version < 1 {
		t.Fatalf("served version %d", body.Version)
	}
	if len(body.Postings) == 0 || len(body.Postings) > 3 {
		t.Fatalf("got %d postings for k=3", len(body.Postings))
	}

	if resp, err = http.Get(srv.URL + "/search?terms=abc"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed terms: status = %d, want 400", resp.StatusCode)
	}

	// k sizes the merge heap and from indexes the overlay: both bounded.
	for _, bad := range []string{"terms=0&k=0", "terms=0&k=1000000000", "terms=0&from=-1", "terms=0&from=4"} {
		if resp, err = http.Get(srv.URL + "/search?" + bad); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}

	if resp, err = http.Get(srv.URL + "/search?terms=0&minv=999999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfiable minv: status = %d, want 503", resp.StatusCode)
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := serve.NewStore(0); err == nil {
		t.Error("zero-shard store accepted")
	}
	store, err := serve.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(5, 1, nil); err == nil {
		t.Error("out-of-range publish accepted")
	}
	if v := store.Version(); v != 0 {
		t.Errorf("fresh store at version %d", v)
	}
}
