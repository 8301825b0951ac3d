package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

// TestConcurrentPublishQueryNoTornVersion is the snapshot-swap safety
// test (run under -race in make race): a publisher goroutine storms new
// versions into a single-shard store while queriers read. Every publish
// fills the whole score vector with float64(version), so a torn read —
// a query observing half of one snapshot and half of another — would
// surface as a response whose scores disagree with each other or with
// its Version. Versions must also be monotone per querier.
func TestConcurrentPublishQueryNoTornVersion(t *testing.T) {
	const (
		pages     = 400
		publishes = 300
		queriers  = 4
	)
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 9
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One shard: every page local, every query consults exactly the
	// snapshot under concurrent replacement.
	ov, err := pastry.New([]nodeid.ID{nodeid.Hash("ranker-0")})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := serve.NewStore(1)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(assign.Pages[0]))
	publish := func(v int64) {
		for i := range scores {
			scores[i] = float64(v)
		}
		minted, err := store.Publish(0, v, scores)
		if err != nil {
			t.Error(err)
		} else if minted != v {
			t.Errorf("publish minted version %d, want %d", minted, v)
		}
	}
	publish(1)
	text := search.DefaultConfig()
	text.Vocabulary = 200
	text.TermsPerPage = 8
	fe, err := serve.NewFrontend(g, ov, assign, store, serve.Config{Text: text, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for v := int64(2); v <= publishes; v++ {
			store.Advance(0)
			publish(v)
		}
	}()
	errs := make(chan error, queriers)
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := fe.NewQuerier()
			var resp search.Response
			queries := [][]int32{{0}, {1, 2}, {0, 3}}
			lastVersion := int64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				req := search.Request{Terms: queries[i%len(queries)], K: 8}
				if err := q.Serve(req, &resp); err != nil {
					errs <- fmt.Errorf("querier %d: %v", w, err)
					return
				}
				if resp.Version < lastVersion {
					errs <- fmt.Errorf("querier %d: version went backwards %d -> %d", w, lastVersion, resp.Version)
					return
				}
				lastVersion = resp.Version
				for _, p := range resp.Postings {
					if p.Score != float64(resp.Version) {
						errs <- fmt.Errorf("querier %d: torn read — posting score %v inside version %d", w, p.Score, resp.Version)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := store.Version(); v != publishes {
		t.Fatalf("store ended at version %d, want %d", v, publishes)
	}
}

// TestConcurrentColdRoutes has several queriers fill cold hop rows at
// once, each from origins of its own, with no lock around routing:
// the overlay is immutable after construction. Every answer's lookup
// hops must match the same request served alone afterwards.
func TestConcurrentColdRoutes(t *testing.T) {
	const (
		k        = 64
		queriers = 4
	)
	f := newFixture(t, 2000, k, -1)
	queries := [][]int32{{0}, {1}, {2}, {0, 1}}
	serveAll := func(q *serve.Querier, w int) ([]search.Cost, error) {
		var costs []search.Cost
		var resp search.Response
		for from := w; from < k; from += queriers {
			for _, terms := range queries {
				if err := q.Serve(search.Request{Terms: terms, K: 5, From: from}, &resp); err != nil {
					return nil, fmt.Errorf("origin %d, terms %v: %v", from, terms, err)
				}
				costs = append(costs, resp.Cost)
			}
		}
		return costs, nil
	}
	got := make([][]search.Cost, queriers)
	errs := make([]error, queriers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], errs[w] = serveAll(f.fe.NewQuerier(), w)
		}(w)
	}
	close(start)
	wg.Wait()
	routed := 0
	for w := 0; w < queriers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		want, err := serveAll(f.fe.NewQuerier(), w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Fatalf("querier %d answer %d: cost %+v concurrently, %+v alone", w, i, got[w][i], want[i])
			}
			routed += want[i].LookupHops
		}
	}
	if routed == 0 {
		t.Fatal("no query routed a hop: the test exercises nothing")
	}
}
