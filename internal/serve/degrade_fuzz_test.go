package serve

import (
	"cmp"
	"errors"
	"reflect"
	"slices"
	"testing"

	"p2prank/internal/overlay"
	"p2prank/internal/search"
	"p2prank/internal/xrand"
)

// FuzzFrontendDegraded holds every Response field of the degraded read
// path — Postings, Coverage, Degraded, Hedged, Staleness, Version and
// Cost — to a reference loop that shares no code with Serve: it reads
// nothing back from the store, only what the test published and
// advanced, and walks every shard holding every query term in
// ascending order, scanning each one in full.
//
// The tier is FuzzFrontendPlan's on a smaller scale (K 1–64, at most
// 1200 pages). Shard s's health byte (health[s], 0 past the end) picks
// its state, byte mod 3: healthy, slow (hedged to its replica) or
// unreachable; how many times it publishes, byte/3 mod 3: twice, once
// (no replica: a slow read takes the primary) or never (lost
// coverage); and how many rounds it is advanced after its last
// publish, byte/9 mod 4. The two publishes draw their scores apart
// (fuzzRanks, in the layout byte's layout), so a replica's ceiling
// differs from its primary's and a hedged read must prune against the
// snapshot it reads. Queries decode as in FuzzFrontendPlan; every one
// is served twice, so with the cache on (seed bit 0 clear) an answer a
// cache could hold is also checked as a hit.
func FuzzFrontendDegraded(f *testing.F) {
	for _, seed := range []struct {
		seed           uint64
		k              uint8
		size           uint16
		vocab, perPage uint8
		layout         uint8
		health         []byte
		queries        []byte
	}{
		{1, 7, 99, 15, 3, 0, []byte{0, 1, 2, 1, 0, 10, 1, 4, 19}, []byte{0, 0, 1, 1, 2, 3, 2, 0, 1, 2, 3, 3, 4, 5, 6}},
		{2, 31, 40, 40, 5, 1, []byte{1, 1, 0, 0, 2, 1, 28, 1, 4, 1, 0, 13, 1, 1, 22, 1}, []byte{1, 0, 1, 5, 1, 2, 7, 0, 0, 0, 0, 40, 3}},
		{3, 63, 15, 100, 4, 2, []byte{1, 4, 7, 10, 13, 16, 19, 22, 25, 2, 0}, []byte{1, 0, 1, 1, 0, 9, 2, 3, 4, 5, 40, 0, 0, 1}},
		{4, 0, 300, 12, 3, 1, []byte{1}, []byte{0, 0, 124, 1, 0, 5, 1, 0, 1, 2, 2, 0, 1}},
		{5, 3, 299, 30, 2, 1, []byte{2, 2, 2, 1}, []byte{0, 0, 8, 1, 40, 2, 1, 3, 4, 5}},
		// Every shard unreachable, then every shard unpublished.
		{6, 5, 50, 20, 3, 0, []byte{2, 2, 2, 2, 2, 2}, []byte{0, 0, 0, 1}},
		{7, 5, 50, 20, 3, 0, []byte{6, 7, 8, 6, 7, 8}, []byte{0, 0, 0, 1}},
	} {
		f.Add(seed.seed, seed.k, seed.size, seed.vocab, seed.perPage, seed.layout, seed.health, seed.queries)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kByte uint8, size uint16, vocabByte, perPageByte, layout uint8, health, queries []byte) {
		k := 1 + int(kByte)%64
		pages := min(1200, k*(1+int(size)%300))
		text := search.Config{Vocabulary: 1 + int(vocabByte)%64, Skew: 1}
		text.TermsPerPage = 1 + int(perPageByte)%min(8, text.Vocabulary)
		tm, ov, assign, ok := fuzzTier(t, seed, k, pages, text)
		if !ok {
			return
		}
		store, err := NewStore(k)
		if err != nil {
			t.Fatal(err)
		}
		// What the reference knows of each shard: its publishes, oldest
		// first, and the rounds advanced since the last.
		type published struct {
			version, round int64
			scores         []float64
		}
		pubs := make([][]published, k)
		ticks := make([]int64, k)
		states := &tableHealth{state: make([]ShardState, k), asked: make([]bool, k)}
		rng := xrand.New(seed)
		round, minted := int64(0), int64(0)
		for n := 0; n < 2; n++ {
			ranks := fuzzRanks(layout, rng, assign)
			for s, ps := range assign.Pages {
				var b byte
				if s < len(health) {
					b = health[s]
				}
				if n < int(b/3%3) {
					continue
				}
				scores := make([]float64, len(ps))
				for i, p := range ps {
					scores[i] = ranks[p]
				}
				round += 1 + int64(rng.Intn(3))
				v, err := store.Publish(s, round, scores)
				if err != nil {
					t.Fatal(err)
				}
				minted = v
				pubs[s] = append(pubs[s], published{v, round, scores})
			}
		}
		for s := range pubs {
			var b byte
			if s < len(health) {
				b = health[s]
			}
			states.state[s] = []ShardState{ShardHealthy, ShardSlow, ShardUnreachable}[b%3]
			for range b / 9 % 4 {
				store.Advance(s)
				ticks[s]++
			}
		}
		cacheEntries := -1
		if seed&1 == 0 {
			cacheEntries = 0
		}
		fe, err := NewFrontendFrom(tm, ov, assign, store, Config{Text: text, CacheEntries: cacheEntries, Health: states})
		if err != nil {
			t.Fatal(err)
		}
		holds := shardTerms(tm, assign)

		q := fe.NewQuerier()
		var got, want search.Response
		for n := 0; n < 32; n++ {
			var req search.Request
			if req, queries = nextQuery(queries, text.Vocabulary); req.Terms == nil {
				break
			}
			req.From = int(seed>>1) % k
			// The reference.
			want = search.Response{Coverage: 1}
			var cands []search.Posting
			planned, missed := 0, 0
			for s, ps := range assign.Pages {
				if slices.ContainsFunc(req.Terms, func(term int32) bool { return !holds[s][term] }) {
					continue
				}
				planned++
				sp := pubs[s]
				if states.state[s] == ShardUnreachable || len(sp) == 0 {
					missed++
					continue
				}
				read, stale := sp[len(sp)-1], ticks[s]
				if states.state[s] == ShardSlow {
					if len(sp) == 2 {
						stale += read.round - sp[0].round
						read = sp[0]
					}
					want.Hedged++
				}
				if want.Version == 0 || read.version < want.Version {
					want.Version = read.version
				}
				want.Staleness = max(want.Staleness, stale)
				hops, err := overlay.Hops(ov, req.From, ov.NodeID(s))
				if err != nil {
					t.Fatal(err)
				}
				want.Cost.LookupHops += hops
				want.Cost.Responses++
				for i, p := range ps {
					if !slices.ContainsFunc(req.Terms, func(term int32) bool { return !slices.Contains(tm.Row(p), term) }) {
						cands = append(cands, search.Posting{Page: p, Score: read.scores[i]})
					}
				}
			}
			slices.SortFunc(cands, func(a, b search.Posting) int {
				return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Page, b.Page))
			})
			want.Postings = cands[:min(req.K, len(cands))]
			if missed > 0 {
				want.Coverage = float64(planned-missed) / float64(planned)
				want.Degraded = true
			}
			if want.Version == 0 {
				want.Version = minted
			}

			for range 2 {
				err := q.Serve(req, &got)
				if planned > 0 && missed == planned {
					if !errors.Is(err, search.ErrStaleIndex) {
						t.Fatalf("query %+v with all %d planned shards lost: err = %v, want ErrStaleIndex", req, planned, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("query %+v: %v", req, err)
				}
				if !slices.Equal(got.Postings, want.Postings) {
					t.Fatalf("K %d, %d pages, query %+v: postings %v, reference %v", k, pages, req, got.Postings, want.Postings)
				}
				g, w := got, want
				g.Postings, w.Postings = nil, nil
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("K %d, %d pages, query %+v: response %+v, reference %+v", k, pages, req, g, w)
				}
			}
		}
	})
}
