package serve

import (
	"testing"

	"p2prank/internal/search"
)

// mintingHealth reports every shard healthy and, on its first call,
// starts a publish: a version minted in the middle of a query's scan.
type mintingHealth struct {
	store  *Store
	minted bool
}

func (h *mintingHealth) ShardState(int) ShardState {
	if !h.minted {
		h.minted = true
		h.store.mint()
	}
	return ShardHealthy
}

// A publish mints its version before it installs its snapshot. A query
// between the two halves scans the old snapshot under the new version
// number; caching that answer under the new version would pin it on
// every identical query until the next publish. The test steps a
// publish's halves around Serve calls: the in-flight answer is the old
// state and is not cached, the first answer after the install carries
// the new version, and only then does the cache fill and hit. A version
// minted while a query scans keeps that query's answer out too.
func TestQueryInsidePublishIsNotCached(t *testing.T) {
	g, ov, assign, store := buildInputs(t, 400, 1)
	scores := func(v float64) []float64 {
		s := make([]float64, len(assign.Pages[0]))
		for i := range s {
			s[i] = v
		}
		return s
	}
	if _, err := store.Publish(0, 1, scores(1)); err != nil {
		t.Fatal(err)
	}
	health := &mintingHealth{store: store, minted: true}
	fe, err := NewFrontend(g, ov, assign, store, Config{Health: health})
	if err != nil {
		t.Fatal(err)
	}
	q := fe.NewQuerier()
	var resp search.Response
	serve := func(wantVersion int64) {
		t.Helper()
		if err := q.Serve(search.Request{Terms: []int32{0}, K: 4}, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Postings) == 0 {
			t.Fatal("no page holds term 0: the query exercises nothing")
		}
		if resp.Version != wantVersion || resp.Postings[0].Score != float64(wantVersion) {
			t.Fatalf("answer at version %d with score %v, want version %d",
				resp.Version, resp.Postings[0].Score, wantVersion)
		}
	}

	v := store.mint()
	serve(1) // between the halves: still the old state
	if n, _ := fe.cache.usage(); n != 0 {
		t.Errorf("an answer computed inside a publish was cached (%d entries)", n)
	}
	store.install(&ShardSnapshot{Shard: 0, Version: v, Round: 2, Scores: scores(2)})
	serve(2)
	hits, _ := fe.CacheStats()
	serve(2)
	if h, _ := fe.CacheStats(); h != hits+1 {
		t.Fatalf("settled answer not served from the cache: hits %d -> %d", hits, h)
	}

	// Settled at the start, a version minted mid-scan: computed, not kept.
	if _, err := store.Publish(0, 3, scores(3)); err != nil {
		t.Fatal(err)
	}
	health.minted = false
	before, _ := fe.cache.usage()
	serve(3)
	if n, _ := fe.cache.usage(); n != before {
		t.Fatalf("an answer a publish began under was cached (%d -> %d entries)", before, n)
	}
}
