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

// benchFrontend builds a tier of that many by-site shards of 100
// pages, each published once, with cfg's Health and Admission and the
// cache off.
func benchFrontend(b *testing.B, shards int, cfg serve.Config) (*serve.Frontend, *serve.Store) {
	b.Helper()
	gen := webgraph.DefaultGenConfig(shards * 100)
	gen.Sites = shards * 2
	gen.Seed = 21
	g, err := webgraph.Generate(gen)
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
	cfg.Text = search.DefaultConfig()
	cfg.Text.Vocabulary = 1000
	cfg.Text.TermsPerPage = 10
	// Cache disabled: the benchmark measures the full merge path, not
	// cache hits.
	cfg.CacheEntries = -1
	fe, err := serve.NewFrontend(g, ov, assign, store, cfg)
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
	fe, _ := benchFrontend(b, 64, serve.Config{})
	benchQueries(b, fe, topKQueries)
}

// topKQueries are BenchmarkQueryTopK's and BenchmarkQueryDegraded's.
var topKQueries = []search.Request{
	{Terms: []int32{0}, K: 10},
	{Terms: []int32{1, 2}, K: 10},
	{Terms: []int32{3, 4, 5}, K: 10},
	{Terms: []int32{7, 11}, K: 100},
}

// BenchmarkQueryDegraded is BenchmarkQueryTopK's tier read through its
// degraded path: a LatticeHealth with the partition up and stragglers
// hedged to their replicas, and staleness admission with every shard
// behind the cut past the bound, so each query walks the over-bound
// list, finds it all unreachable, and is admitted. Gated at
// 0 allocs/op.
func BenchmarkQueryDegraded(b *testing.B) {
	const shards, bound = 64, 2
	fcfg := dprcore.FaultConfig{
		PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: 1,
		StraggleFrac: 0.25, StraggleFactor: 1, Seed: 5,
	}
	at := fcfg.MajorityNode(shards)
	health, err := serve.NewLatticeHealth(fcfg, at, func() float64 { return 0.5 })
	if err != nil {
		b.Fatal(err)
	}
	fe, store := benchFrontend(b, shards, serve.Config{Health: health, Admission: serve.Admission{StalenessBound: bound}})
	cut := 0
	for s := 0; s < shards; s++ {
		// A second publish gives the stragglers a replica to hedge to.
		if _, err := store.Publish(s, 2, store.Snapshot(s).Scores); err != nil {
			b.Fatal(err)
		}
		if fcfg.PartitionMinority(s) != fcfg.PartitionMinority(at) {
			cut++
			for i := 0; i <= bound; i++ {
				store.Advance(s)
			}
		}
	}
	if cut == 0 {
		b.Fatal("no shard behind the cut")
	}
	benchQueries(b, fe, topKQueries)
	if st := fe.DegradeStats(); st.Shed != 0 || st.Hedged == 0 || st.Degraded == 0 {
		b.Fatalf("degrade stats %+v: want no shed, some hedged and degraded", st)
	}
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
