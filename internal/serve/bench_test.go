package serve_test

import (
	"fmt"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

func benchFrontend(b *testing.B, shards int) (*serve.Frontend, *serve.Store) {
	b.Helper()
	cfg := webgraph.DefaultGenConfig(shards * 100)
	cfg.Sites = shards * 2
	cfg.Seed = 21
	g, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]nodeid.ID, shards)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		b.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		b.Fatal(err)
	}
	store, err := serve.NewStore(shards)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		scores := make([]float64, len(assign.Pages[s]))
		for i, p := range assign.Pages[s] {
			scores[i] = 1.0 / float64(p+1)
		}
		if _, err := store.Publish(s, 1, scores); err != nil {
			b.Fatal(err)
		}
	}
	text := search.DefaultConfig()
	text.Vocabulary = 1000
	text.TermsPerPage = 10
	// Cache disabled: the benchmark measures the full merge path, not
	// cache hits.
	fe, err := serve.NewFrontend(g, ov, assign, store, serve.Config{Text: text, CacheEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	return fe, store
}

// BenchmarkQueryTopK is the ratchet kernel for the merged read path
// where the scan dominates: distributed top-k over 64 by-site shards of
// 100 pages, cache off, reused Querier and Response. Gated at
// 0 allocs/op.
func BenchmarkQueryTopK(b *testing.B) {
	fe, _ := benchFrontend(b, 64)
	benchQueries(b, fe, []search.Request{
		{Terms: []int32{0}, K: 10},
		{Terms: []int32{1, 2}, K: 10},
		{Terms: []int32{3, 4, 5}, K: 10},
		{Terms: []int32{7, 11}, K: 100},
	})
}

// BenchmarkQueryFanout is the same path where the fan-out dominates —
// the repo benchmark's tier, 1000 by-page shards of 20 pages: a popular
// term (nearly every shard consulted, a page or two each), a rare term
// with a popular one (the plan's merge), three terms. Gated at
// 0 allocs/op.
func BenchmarkQueryFanout(b *testing.B) {
	f := newFixtureAs(b, 20000, 1000, -1, partition.ByPage, search.DefaultConfig())
	benchQueries(b, f.fe, []search.Request{
		{Terms: []int32{0}, K: 10},
		{Terms: []int32{900, 1}, K: 10},
		{Terms: []int32{2, 5, 9}, K: 10},
	})
}

// BenchmarkQueryCacheChurn is the ratchet kernel for the cache's fill:
// the fan-out tier with the cache on and one query more than it holds,
// round-robin, so every Serve is a miss, an eviction and a fill into
// the evicted slot. Gated at 0 allocs/op.
func BenchmarkQueryCacheChurn(b *testing.B) {
	f := newFixtureAs(b, 20000, 1000, 0, partition.ByPage, search.DefaultConfig())
	queries := make([]search.Request, serve.DefaultCacheEntries+1)
	for i := range queries {
		// Rare terms: the fill, not the scan, is what is measured.
		queries[i] = search.Request{Terms: []int32{int32(600 + i%400), int32(300 + i/400)}, K: 10}
	}
	benchQueries(b, f.fe, queries)
	if hits, _ := f.fe.CacheStats(); hits != 0 {
		b.Fatalf("%d cache hits: the benchmark is meant to miss every time", hits)
	}
}

// benchQueries serves the queries round-robin on one warm Querier.
func benchQueries(b *testing.B, fe *serve.Frontend, queries []search.Request) {
	q := fe.NewQuerier()
	var resp search.Response
	for _, req := range queries { // warm scratch to high-water mark
		if err := q.Serve(req, &resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Serve(queries[i%len(queries)], &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotPublish is the ratchet kernel for the write path:
// decode a DPRS checkpoint and swap it into the store.
func BenchmarkSnapshotPublish(b *testing.B) {
	const n = 1000
	store, err := serve.NewStore(1)
	if err != nil {
		b.Fatal(err)
	}
	pub := serve.NewPublisher(store, nil)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = 1.0 / float64(i+1)
	}
	data := dprcore.EncodeRankSnapshot(nil, 0, 1, scores)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Save(0, int64(i+1), data); err != nil {
			b.Fatal(err)
		}
	}
}
