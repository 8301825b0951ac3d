package search

import (
	"errors"
	"fmt"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

type fixture struct {
	g      *webgraph.Graph
	ranks  vecmath.Vec
	ov     *pastry.Overlay
	assign *partition.Assignment
	ix     *Index
}

func newFixture(t testing.TB, pages, k int) *fixture {
	t.Helper()
	g := crawl(t, pages)
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
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultConfig()
	scfg.Vocabulary = 500
	scfg.TermsPerPage = 8
	ix, err := Build(g, res.Ranks, ov, assign, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, ranks: res.Ranks, ov: ov, assign: assign, ix: ix}
}

func TestTermsOfDeterministicAndSorted(t *testing.T) {
	f := newFixture(t, 1000, 8)
	cfg := DefaultConfig()
	for p := int32(0); p < 50; p++ {
		t1, err := TermsOf(f.g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := TermsOf(f.g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(t1) != cfg.TermsPerPage {
			t.Fatalf("page %d has %d terms", p, len(t1))
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("page %d terms not deterministic", p)
			}
			if i > 0 && t1[i-1] >= t1[i] {
				t.Fatalf("page %d terms unsorted or duplicated: %v", p, t1)
			}
		}
	}
}

func TestTermPopularityskewed(t *testing.T) {
	f := newFixture(t, 3000, 8)
	// Term 0 (Zipf rank 1) must have a far longer posting list than a
	// mid-vocabulary term.
	p0, err := f.ix.PostingList(0)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := f.ix.PostingList(250)
	if err != nil {
		t.Fatal(err)
	}
	if len(p0) <= len(pm)*3 {
		t.Fatalf("no popularity skew: |term0|=%d |term250|=%d", len(p0), len(pm))
	}
}

func TestPostingsComplete(t *testing.T) {
	f := newFixture(t, 800, 8)
	cfg := DefaultConfig()
	cfg.Vocabulary = 500
	cfg.TermsPerPage = 8
	// Every page must appear in exactly its terms' posting lists.
	var totalPostings int64
	for tm := int32(0); int(tm) < 500; tm++ {
		ps, err := f.ix.PostingList(tm)
		if err != nil {
			t.Fatal(err)
		}
		totalPostings += int64(len(ps))
		for _, e := range ps {
			terms, err := TermsOf(f.g, e.Page, cfg)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, pt := range terms {
				if pt == tm {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("page %d in posting list of term %d it does not contain", e.Page, tm)
			}
			if e.Score != f.ranks[e.Page] {
				t.Fatalf("posting score %v != rank %v", e.Score, f.ranks[e.Page])
			}
		}
	}
	if totalPostings != int64(800*8) {
		t.Fatalf("total postings %d, want %d", totalPostings, 800*8)
	}
	if f.ix.PostingsTotal != totalPostings {
		t.Fatalf("PostingsTotal %d != %d", f.ix.PostingsTotal, totalPostings)
	}
}

func TestPostingListsRankOrdered(t *testing.T) {
	f := newFixture(t, 1500, 8)
	for tm := int32(0); tm < 100; tm++ {
		ps, err := f.ix.PostingList(tm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Score > ps[i-1].Score {
				t.Fatalf("term %d postings out of order", tm)
			}
		}
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	f := newFixture(t, 1500, 8)
	cfg := DefaultConfig()
	cfg.Vocabulary = 500
	cfg.TermsPerPage = 8
	queries := [][]int32{{0}, {1, 2}, {0, 1, 2}, {5, 17}}
	var resp Response
	for _, q := range queries {
		if err := f.ix.Serve(Request{Terms: q, K: 10}, &resp); err != nil {
			t.Fatal(err)
		}
		got := resp.Postings
		// Brute force: pages containing all query terms, by rank.
		var want []Posting
		for p := 0; p < f.g.NumPages(); p++ {
			terms, err := TermsOf(f.g, int32(p), cfg)
			if err != nil {
				t.Fatal(err)
			}
			have := map[int32]bool{}
			for _, tm := range terms {
				have[tm] = true
			}
			all := true
			for _, tm := range q {
				if !have[tm] {
					all = false
					break
				}
			}
			if all {
				want = append(want, Posting{Page: int32(p), Score: f.ranks[p]})
			}
		}
		sortPostings(want)
		if len(want) > 10 {
			want = want[:10]
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %v result %d: got %+v, want %+v", q, i, got[i], want[i])
			}
		}
	}
}

func sortPostings(ps []Posting) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0; j-- {
			better := ps[j].Score > ps[j-1].Score ||
				(ps[j].Score == ps[j-1].Score && ps[j].Page < ps[j-1].Page)
			if !better {
				break
			}
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func TestQueryEmptyIntersection(t *testing.T) {
	f := newFixture(t, 500, 8)
	// A long conjunction of rare terms is almost surely empty.
	var resp Response
	if err := f.ix.Serve(Request{Terms: []int32{480, 481, 482, 483, 484}, K: 5}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Postings) != 0 {
		// Not impossible, but then every result must contain all terms
		// — covered by TestQueryMatchesBruteForce. Accept.
		t.Logf("rare conjunction nonempty: %d results", len(resp.Postings))
	}
}

func TestQueryValidation(t *testing.T) {
	f := newFixture(t, 300, 4)
	var resp Response
	if err := f.ix.Serve(Request{K: 5}, &resp); err == nil {
		t.Error("empty query accepted")
	}
	if err := f.ix.Serve(Request{Terms: []int32{0}}, &resp); err == nil {
		t.Error("k=0 accepted")
	}
	if err := f.ix.Serve(Request{Terms: []int32{9999}, K: 5}, &resp); !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("out-of-vocabulary term: err = %v, want ErrUnknownTerm", err)
	}
	for _, from := range []int{-1, 4, 1 << 20} {
		if err := f.ix.Serve(Request{Terms: []int32{0}, K: 5, From: from}, &resp); !errors.Is(err, ErrBadOrigin) {
			t.Errorf("from %d of 4 rankers: err = %v, want ErrBadOrigin", from, err)
		}
	}
	if _, err := f.ix.PostingList(-1); !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("negative term: err = %v, want ErrUnknownTerm", err)
	}
	if _, err := f.ix.TermOwner(9999); !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("out-of-range TermOwner: err = %v, want ErrUnknownTerm", err)
	}
}

func TestServeVersionContract(t *testing.T) {
	f := newFixture(t, 300, 4)
	var resp Response
	if err := f.ix.Serve(Request{Terms: []int32{0}, K: 3}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != StaticVersion || resp.Staleness != 0 {
		t.Fatalf("static index served version %d staleness %d", resp.Version, resp.Staleness)
	}
	if resp.Cost.Responses != 1 || resp.Cost.LookupHops < 0 {
		t.Fatalf("single-term cost = %+v", resp.Cost)
	}
	// A static index has exactly one version; demanding a newer one
	// must fail with the typed sentinel.
	err := f.ix.Serve(Request{Terms: []int32{0}, K: 3, MinVersion: StaticVersion + 1}, &resp)
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("MinVersion beyond static: err = %v, want ErrStaleIndex", err)
	}
	if err := f.ix.Serve(Request{Terms: []int32{0}, K: 3, MinVersion: StaticVersion}, &resp); err != nil {
		t.Fatalf("MinVersion == StaticVersion rejected: %v", err)
	}
}

func TestResponseReuseNoGrowth(t *testing.T) {
	f := newFixture(t, 500, 4)
	var resp Response
	if err := f.ix.Serve(Request{Terms: []int32{0}, K: 10}, &resp); err != nil {
		t.Fatal(err)
	}
	first := resp.Postings
	if err := f.ix.Serve(Request{Terms: []int32{1}, K: 10}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Postings) > 0 && len(first) > 0 && &resp.Postings[0] != &first[0] {
		t.Fatal("reused Response reallocated Postings despite sufficient capacity")
	}
}

// TestStaticServeFullCoverage pins the static index's degraded-serving
// contract: a frozen rank vector always answers with full coverage.
func TestStaticServeFullCoverage(t *testing.T) {
	f := newFixture(t, 500, 8)
	resp := Response{Coverage: 0.25, Degraded: true, Hedged: 3} // stale garbage a reused Response might carry
	if err := f.ix.Serve(Request{Terms: []int32{0, 1}, K: 5}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Coverage != 1 || resp.Degraded || resp.Hedged != 0 {
		t.Fatalf("static serve reported coverage %v degraded %v hedged %d",
			resp.Coverage, resp.Degraded, resp.Hedged)
	}
}

func TestBuildValidation(t *testing.T) {
	f := newFixture(t, 300, 4)
	if _, err := Build(f.g, vecmath.Const(5, 1), f.ov, f.assign, DefaultConfig()); err == nil {
		t.Error("wrong-length ranks accepted")
	}
	bad := DefaultConfig()
	bad.TermsPerPage = 99999
	if _, err := Build(f.g, f.ranks, f.ov, f.assign, bad); err == nil {
		t.Error("terms-per-page > vocabulary accepted")
	}
	if _, err := TermsOf(f.g, 0, Config{Vocabulary: -1}); err == nil {
		t.Error("negative vocabulary accepted")
	}
}

func TestTermPlacementDeterministicAndSpread(t *testing.T) {
	f := newFixture(t, 1000, 16)
	counts := map[int32]int{}
	for tm := int32(0); tm < 500; tm++ {
		o1, err := f.ix.TermOwner(tm)
		if err != nil {
			t.Fatal(err)
		}
		counts[o1]++
	}
	if len(counts) < 8 {
		t.Fatalf("terms spread over only %d of 16 rankers", len(counts))
	}
}

func TestPostingsMovedAccounting(t *testing.T) {
	f := newFixture(t, 1500, 8)
	if f.ix.PostingsMoved <= 0 || f.ix.PostingsMoved > f.ix.PostingsTotal {
		t.Fatalf("PostingsMoved = %d of %d", f.ix.PostingsMoved, f.ix.PostingsTotal)
	}
	// Term placement ignores page placement, so most postings cross
	// ranker boundaries (≈ (K−1)/K of them).
	frac := float64(f.ix.PostingsMoved) / float64(f.ix.PostingsTotal)
	if frac < 0.5 {
		t.Fatalf("implausibly low cross-ranker posting fraction %v", frac)
	}
}

func TestQueryCost(t *testing.T) {
	f := newFixture(t, 1000, 16)
	var resp Response
	if err := f.ix.Serve(Request{Terms: []int32{0, 1, 2}, K: 1, From: 0}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cost.Responses < 1 || resp.Cost.Responses > 3 {
		t.Fatalf("responses = %d", resp.Cost.Responses)
	}
	if resp.Cost.LookupHops < 0 {
		t.Fatalf("hops = %d", resp.Cost.LookupHops)
	}
	if err := f.ix.Serve(Request{Terms: []int32{99999}, K: 1, From: 0}, &resp); !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("bad term: err = %v, want ErrUnknownTerm", err)
	}
}

func TestTermName(t *testing.T) {
	cases := []struct {
		t    int32
		want string
	}{
		{0, "term00000"},
		{7, "term00007"},
		{42, "term00042"},
		{999, "term00999"},
		{12345, "term12345"},
		{123456, "term123456"}, // beyond 5 digits: all digits kept, like %05d
	}
	for _, c := range cases {
		if got := TermName(c.t); got != c.want {
			t.Errorf("TermName(%d) = %q, want %q", c.t, got, c.want)
		}
		if got := string(AppendTermName(nil, c.t)); got != c.want {
			t.Errorf("AppendTermName(%d) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestAppendTermNameNoAlloc(t *testing.T) {
	buf := make([]byte, 0, 32)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendTermName(buf[:0], 12345)
	})
	if allocs != 0 {
		t.Fatalf("AppendTermName allocates %v per call", allocs)
	}
}

func BenchmarkQuery(b *testing.B) {
	f := newFixture(b, 5000, 16)
	var resp Response
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.ix.Serve(Request{Terms: []int32{0, 1}, K: 10}, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
