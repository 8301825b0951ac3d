package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
)

// ceilingShard is one hand-built shard: its global pages, the scores
// its primary publishes, the scores an earlier publish left as its
// replica (nil: none), whether Health calls it slow (so the replica is
// read), and whether its scan must be skipped.
type ceilingShard struct {
	pages   []int32
	primary []float64
	replica []float64
	slow    bool
	skipped bool
}

// The ceiling skip against a brute-force top-k, on a tier where every
// page holds the one term and K = 3. Shard 0 fills the heap; each later
// shard's ceiling (the snapshot's largest score, of the snapshot the
// read uses) is above, equal to or below the heap's worst when the scan
// reaches it, in ascending shard order:
//
//	shard 0  {5, 4, 3}            fills the heap: worst 3
//	shard 1  {4.5, 0}             above: 4.5 enters, worst 4
//	shard 2  replica {4.8, 0}     hedged, primary {0.5, 0.5} below and
//	                              replica above: 4.8 enters, worst 4.5
//	shard 3  {4.5 on page 0, 1}   ties the worst (4.5 on page 8): scanned,
//	                              and the lower page id enters
//	shard 4  {4.4, 2}             below: skipped
//	shard 5  {NaN, 4.3, NaN}      NaN never raises the ceiling 4.3: skipped
//	shard 6  replica {1, 0.5}     hedged, primary {6, 1} above and
//	                              replica below: skipped
//	shard 7  {NaN}                ceiling −Inf: skipped
//	shard 8  no pages             ceiling −Inf, never planned
//
// Postings must equal the brute-force top-k over the snapshots read. A
// NaN posting offered to a full heap never enters (worse(worst, NaN) is
// false), and every NaN here is offered to a full one, so the reference
// drops them. Then each planned shard's read snapshot is poisoned in
// turn, every score +Inf under an unchanged ceiling: the answer must
// take a poisoned page exactly when the shard is scanned — so the
// skips are the listed shards, no more and no fewer.
func TestCeilingSkipsOnlyLosingShards(t *testing.T) {
	shards := []ceilingShard{
		{pages: []int32{5, 6, 7}, primary: []float64{5, 4, 3}},
		{pages: []int32{8, 9}, primary: []float64{4.5, 0}},
		{pages: []int32{3, 10}, primary: []float64{0.5, 0.5}, replica: []float64{4.8, 0}, slow: true},
		{pages: []int32{0, 11}, primary: []float64{4.5, 1}},
		{pages: []int32{12, 13}, primary: []float64{4.4, 2}, skipped: true},
		{pages: []int32{1, 14, 15}, primary: []float64{math.NaN(), 4.3, math.NaN()}, skipped: true},
		{pages: []int32{2, 16}, primary: []float64{6, 1}, replica: []float64{1, 0.5}, slow: true, skipped: true},
		{pages: []int32{4}, primary: []float64{math.NaN()}, skipped: true},
		{},
	}
	const pages, k = 17, 3
	fe, store := ceilingTier(t, shards, pages)
	read := func(s int) *ShardSnapshot {
		if shards[s].slow {
			return store.Replica(s)
		}
		return store.Snapshot(s)
	}
	for s, want := range map[int]float64{0: 5, 2: 4.8, 5: 4.3, 6: 1, 7: math.Inf(-1), 8: math.Inf(-1)} {
		if got := read(s).ceiling; got != want {
			t.Errorf("shard %d read snapshot's ceiling %v, want %v", s, got, want)
		}
	}
	if got := store.Snapshot(6).ceiling; got != 6 {
		t.Errorf("shard 6 primary's ceiling %v, want 6", got)
	}

	q := fe.NewQuerier()
	req := search.Request{Terms: []int32{0}, K: k}
	var resp search.Response
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	var all []search.Posting
	for s, sh := range shards {
		for i, p := range sh.pages {
			if score := read(s).Scores[i]; !math.IsNaN(score) {
				all = append(all, search.Posting{Page: p, Score: score})
			}
		}
	}
	slices.SortFunc(all, func(a, b search.Posting) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Page, b.Page))
	})
	want := all[:k]
	if !slices.Equal(resp.Postings, want) {
		t.Fatalf("postings %v, brute-force top-%d %v", resp.Postings, k, want)
	}
	if want[2] != (search.Posting{Page: 0, Score: 4.5}) {
		t.Fatalf("layout drifted: the tie at the ceiling should hold the k-th place, got %v", want)
	}
	if resp.Cost.Responses != len(shards)-1 || resp.Hedged != 2 {
		t.Fatalf("consulted %d shards with %d hedged, want every planned shard (%d) and 2", resp.Cost.Responses, resp.Hedged, len(shards)-1)
	}

	for s, sh := range shards[:len(shards)-1] {
		scores := read(s).Scores
		saved := slices.Clone(scores)
		for i := range scores {
			scores[i] = math.Inf(1)
		}
		if err := q.Serve(req, &resp); err != nil {
			t.Fatal(err)
		}
		copy(scores, saved)
		poisoned := resp.Postings[0].Score == math.Inf(1)
		if poisoned == sh.skipped {
			t.Errorf("shard %d: scanned = %v, want %v (postings %v)", s, poisoned, !sh.skipped, resp.Postings)
		}
	}
}

// ceilingTier builds a frontend over the given hand-made shards, every
// page holding term 0 and nothing else. A shard with a replica
// publishes it first, then its primary; the health table makes the
// slow shards slow.
func ceilingTier(t *testing.T, shards []ceilingShard, pages int) (*Frontend, *Store) {
	t.Helper()
	gcfg := webgraph.DefaultGenConfig(pages)
	gcfg.Sites = min(gcfg.Sites, pages)
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	k := len(shards)
	assign := &partition.Assignment{K: k, GroupOf: make([]int32, pages), LocalIdx: make([]int32, pages), Pages: make([][]int32, k)}
	ids := make([]nodeid.ID, k)
	health := &tableHealth{state: make([]ShardState, k), asked: make([]bool, k)}
	for s, sh := range shards {
		ids[s] = nodeid.Hash(fmt.Sprintf("ranker-%d", s))
		assign.Pages[s] = sh.pages
		for i, p := range sh.pages {
			assign.GroupOf[p], assign.LocalIdx[p] = int32(s), int32(i)
		}
		if sh.slow {
			health.state[s] = ShardSlow
		}
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(k)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		if !slices.IsSortedFunc(sh.pages, cmp.Compare[int32]) {
			t.Fatalf("shard %d pages %v not ascending", s, sh.pages)
		}
		if sh.replica != nil {
			if _, err := store.Publish(s, 1, sh.replica); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := store.Publish(s, 2, sh.primary); err != nil {
			t.Fatal(err)
		}
	}
	fe, err := NewFrontend(g, ov, assign, store, Config{Text: search.Config{Vocabulary: 1, TermsPerPage: 1}, CacheEntries: -1, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	return fe, store
}
