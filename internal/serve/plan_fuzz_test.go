package serve

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// FuzzFrontendPlan holds the plan (shard bitmaps for dense terms,
// fan-out merges for sparse ones) and the scan (the page-signature
// prefilter, then the block cursors) to two references on a random
// small tier: every answer must be the static search.Index's, and
// Cost.Responses must count exactly the shards holding every query
// term. The tier draws K from 1 to 200 — below 32 every present term is
// dense, from 33 up sparse terms appear, and K need not be a multiple of
// 64 — and shards averaging 1 to 800 pages within 2000 in all: from 33
// pages signatures alias and an entry spans several 32-page blocks, so
// the cursors skip blocks, and a few wide shards give entries of a
// dozen blocks and more. The vocabulary holds at most 256 terms, so
// popular terms sit above K/32 shards and rare ones below. The layout
// byte picks the scores (fuzzRanks): four tied levels, a heavy tail
// whose few high pages leave most shards' ceilings below a full heap,
// so the ceiling skip fires on most of them, or one constant per shard,
// so every ceiling equals every score in its shard. Each query is one
// header byte (low two bits: 1–4 terms; the rest: k) and one byte per
// term, duplicates included.
func FuzzFrontendPlan(f *testing.F) {
	for _, seed := range []struct {
		seed           uint64
		k              uint8
		size           uint16
		vocab, perPage uint8
		layout         uint8
		queries        []byte
	}{
		{1, 0, 99, 15, 3, 0, []byte{0, 0, 1, 1, 2, 3, 2, 0, 1, 2, 3, 3, 4, 5, 6}},
		{2, 30, 99, 40, 5, 0, []byte{1, 0, 1, 5, 1, 2, 7, 0, 0, 0, 0}},
		{3, 63, 30, 100, 4, 0, []byte{1, 0, 1, 1, 0, 9, 2, 3, 4, 5, 40, 0, 0, 1}},
		{4, 99, 19, 200, 8, 0, []byte{1, 0, 50, 2, 1, 2, 3, 3, 0, 1, 1, 0, 6, 0, 80}},
		{5, 199, 9, 255, 11, 0, []byte{1, 0, 1, 1, 3, 200, 3, 1, 0, 2, 2, 9, 9, 9, 3, 0, 2, 0, 2}},
		{6, 129, 49, 60, 2, 0, []byte{5, 0, 1, 7, 0, 1, 2, 59, 3, 0, 0, 1, 1}},
		// One shard of exactly 32, 33, 64 and 65 pages: one-term queries
		// walk every block, wider ones cross the block boundaries.
		{7, 0, 31, 12, 3, 0, []byte{0, 0, 124, 1, 0, 5, 1, 0, 1, 2, 2, 0, 1}},
		{8, 0, 32, 12, 3, 0, []byte{0, 0, 124, 1, 0, 5, 1, 0, 1, 2, 2, 0, 1}},
		{9, 0, 63, 20, 4, 0, []byte{0, 0, 124, 2, 1, 5, 1, 0, 1, 2, 3, 0, 1, 2, 3}},
		{10, 0, 64, 20, 4, 0, []byte{0, 0, 124, 2, 1, 5, 1, 0, 1, 2, 3, 0, 1, 2, 3}},
		// Four shards of about 500 pages: entries of a dozen blocks.
		{11, 3, 499, 80, 6, 0, []byte{0, 0, 124, 40, 1, 0, 1, 5, 2, 1, 3, 2, 0, 1, 2, 3}},
		// Rare terms in wide shards: term pairs a shard holds in
		// different blocks, whose masks must never be ANDed.
		{12, 1, 399, 255, 4, 0, []byte{253, 5, 12, 253, 8, 15, 253, 11, 18, 253, 14, 21, 253, 17, 24, 253, 20, 27, 253, 23, 30, 253, 26, 33, 253, 29, 36, 253, 32, 39,
			253, 35, 42, 253, 38, 45, 253, 41, 48, 253, 44, 51, 253, 47, 54, 253, 50, 57, 253, 53, 60, 253, 56, 63, 253, 59, 66, 253, 62, 69}},
		{14, 0, 127, 255, 3, 0, []byte{253, 5, 12, 253, 8, 15, 253, 11, 18, 253, 14, 21, 253, 17, 24, 253, 20, 27, 253, 23, 30, 253, 26, 33, 253, 29, 36, 253, 32, 39,
			253, 35, 42, 253, 38, 45, 253, 41, 48, 253, 44, 51, 253, 47, 54, 253, 50, 57, 253, 53, 60, 253, 56, 63, 253, 59, 66, 253, 62, 69}},
		// The same tiers under the other two score layouts.
		{1, 0, 99, 15, 3, 1, []byte{0, 0, 1, 1, 2, 3, 2, 0, 1, 2, 3, 3, 4, 5, 6}},
		{11, 3, 499, 80, 6, 1, []byte{0, 0, 124, 40, 1, 0, 1, 5, 2, 1, 3, 2, 0, 1, 2, 3}},
		{6, 129, 49, 60, 2, 1, []byte{5, 0, 1, 7, 0, 1, 2, 59, 3, 0, 0, 1, 1}},
		{1, 0, 99, 15, 3, 2, []byte{0, 0, 1, 1, 2, 3, 2, 0, 1, 2, 3, 3, 4, 5, 6}},
		{11, 3, 499, 80, 6, 2, []byte{0, 0, 124, 40, 1, 0, 1, 5, 2, 1, 3, 2, 0, 1, 2, 3}},
		{6, 129, 49, 60, 2, 2, []byte{5, 0, 1, 7, 0, 1, 2, 59, 3, 0, 0, 1, 1}},
	} {
		f.Add(seed.seed, seed.k, seed.size, seed.vocab, seed.perPage, seed.layout, seed.queries)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kByte uint8, size uint16, vocabByte, perPageByte, layout uint8, queries []byte) {
		k := 1 + int(kByte)%200
		pages := min(2000, k*(1+int(size)%800))
		text := search.Config{Vocabulary: 1 + int(vocabByte)}
		text.TermsPerPage = 1 + int(perPageByte)%min(12, text.Vocabulary)
		tm, ov, assign := fuzzTier(t, seed, k, pages, text)
		ranks := fuzzRanks(layout, xrand.New(seed), assign)
		store, err := NewStore(k)
		if err != nil {
			t.Fatal(err)
		}
		for s, ps := range assign.Pages {
			scores := make([]float64, len(ps))
			for i, p := range ps {
				scores[i] = ranks[p]
			}
			if _, err := store.Publish(s, 1, scores); err != nil {
				t.Fatal(err)
			}
		}
		fe, err := NewFrontendFrom(tm, ov, assign, store, Config{Text: text, CacheEntries: -1})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := search.BuildFrom(tm, ranks, ov, assign)
		if err != nil {
			t.Fatal(err)
		}
		holds := shardTerms(tm, assign)

		q := fe.NewQuerier()
		var got, want search.Response
		for n := 0; n < 64; n++ {
			var req search.Request
			if req, queries = nextQuery(queries, text.Vocabulary); req.Terms == nil {
				break
			}
			req.From = int(seed % uint64(k))
			terms := req.Terms
			if err := q.Serve(req, &got); err != nil {
				t.Fatalf("query %+v: %v", req, err)
			}
			if err := ix.Serve(req, &want); err != nil {
				t.Fatalf("static query %+v: %v", req, err)
			}
			if !slices.Equal(got.Postings, want.Postings) {
				t.Fatalf("K %d, %d pages, query %+v: %v, static index %v", k, pages, req, got.Postings, want.Postings)
			}
			holding := 0
			for s := range holds {
				if !slices.ContainsFunc(terms, func(term int32) bool { return !holds[s][term] }) {
					holding++
				}
			}
			if got.Cost.Responses != holding {
				t.Fatalf("K %d, %d pages, query %+v: %d shards consulted, %d hold every term", k, pages, req, got.Cost.Responses, holding)
			}
		}
	})
}

// fuzzTier draws a random small tier: a crawl of that many pages over k
// Pastry rankers, partitioned at random, and its term matrix under
// text.
func fuzzTier(t *testing.T, seed uint64, k, pages int, text search.Config) (*search.TermMatrix, *pastry.Overlay, *partition.Assignment) {
	t.Helper()
	gcfg := webgraph.DefaultGenConfig(pages)
	gcfg.Sites = min(gcfg.Sites, pages)
	gcfg.MeanOutDegree = 1 // links play no part in the index
	gcfg.Seed = seed
	g, err := webgraph.Generate(gcfg)
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
	assign, err := partition.Assign(g, ov, partition.Random, seed)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := search.DrawTerms(g, text)
	if err != nil {
		t.Fatal(err)
	}
	return tm, ov, assign
}

// fuzzRanks draws one score per page in one of three layouts, layout
// mod 3: four tied levels, so ties are everywhere; a heavy tail,
// ⌊1/u²⌋ for u uniform in (0, 1], whose few high pages leave most
// shards' ceilings below a full heap; or one of eight levels per shard,
// so every ceiling equals every score in its shard.
func fuzzRanks(layout uint8, rng *xrand.Rand, assign *partition.Assignment) []float64 {
	ranks := make([]float64, len(assign.GroupOf))
	switch layout % 3 {
	case 0:
		for p := range ranks {
			ranks[p] = float64(rng.Intn(4))
		}
	case 1:
		for p := range ranks {
			u := 1 - rng.Float64()
			ranks[p] = math.Floor(1 / (u * u))
		}
	case 2:
		for _, ps := range assign.Pages {
			level := float64(rng.Intn(8))
			for _, p := range ps {
				ranks[p] = level
			}
		}
	}
	return ranks
}

// shardTerms returns holds[s][t]: some page of shard s has term t.
func shardTerms(tm *search.TermMatrix, assign *partition.Assignment) [][]bool {
	holds := make([][]bool, assign.K)
	for s, ps := range assign.Pages {
		holds[s] = make([]bool, tm.Config().Vocabulary)
		for _, p := range ps {
			for _, term := range tm.Row(p) {
				holds[s][term] = true
			}
		}
	}
	return holds
}

// nextQuery decodes one query from the front of b: a header byte (low
// two bits: 1–4 terms; the rest: k − 1) and one byte per term, taken
// mod the vocabulary, duplicates included. It returns the rest of b,
// and a request with nil Terms once b runs out.
func nextQuery(b []byte, vocabulary int) (search.Request, []byte) {
	if len(b) == 0 {
		return search.Request{}, b
	}
	w := 1 + int(b[0]&3)
	if len(b) < 1+w {
		return search.Request{}, b
	}
	terms := make([]int32, w)
	for i, t := range b[1 : 1+w] {
		terms[i] = int32(t) % int32(vocabulary)
	}
	return search.Request{Terms: terms, K: 1 + int(b[0]>>2)}, b[1+w:]
}
