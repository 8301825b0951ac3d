package crawler

import (
	"fmt"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/webgraph"
)

func web(t testing.TB, pages int) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 9
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCrawlProgresses(t *testing.T) {
	w := web(t, 2000)
	c, err := New(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Crawl(500); got != 500 {
		t.Fatalf("crawled %d, want 500", got)
	}
	if c.Crawled() != 500 || c.Done() {
		t.Fatalf("crawled=%d done=%v", c.Crawled(), c.Done())
	}
	// Crawl past the end.
	if got := c.Crawl(10000); got != 1500 {
		t.Fatalf("second crawl fetched %d, want 1500", got)
	}
	if !c.Done() {
		t.Fatal("not done after exhausting the web")
	}
	if c.Crawl(10) != 0 {
		t.Fatal("crawled pages beyond the web")
	}
}

func TestSnapshotInvariants(t *testing.T) {
	w := web(t, 3000)
	c, err := New(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	var lastInternal int64 = -1
	for !c.Done() {
		c.Crawl(700)
		snap, toWeb, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("invalid snapshot: %v", err)
		}
		if snap.NumPages() != len(toWeb) || snap.NumPages() != c.Crawled() {
			t.Fatalf("snapshot pages %d, mapping %d, crawled %d",
				snap.NumPages(), len(toWeb), c.Crawled())
		}
		// d(u) is invariant: crawling cannot change a page's total
		// out-degree, only reclassify links internal/external.
		for sp, wp := range toWeb {
			if snap.OutDegree(int32(sp)) != w.OutDegree(wp) {
				t.Fatalf("page %d degree changed: %d vs %d",
					wp, snap.OutDegree(int32(sp)), w.OutDegree(wp))
			}
			if snap.URL(int32(sp)) != w.URL(wp) {
				t.Fatalf("page %d URL changed: %q vs %q",
					wp, snap.URL(int32(sp)), w.URL(wp))
			}
		}
		if snap.NumInternalLinks() < lastInternal {
			t.Fatal("internal links shrank as the crawl grew")
		}
		lastInternal = snap.NumInternalLinks()
	}
	// The final snapshot is the whole web.
	snap, _, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumPages() != w.NumPages() || snap.NumInternalLinks() != w.NumInternalLinks() {
		t.Fatalf("final snapshot %d pages / %d links, web has %d / %d",
			snap.NumPages(), snap.NumInternalLinks(), w.NumPages(), w.NumInternalLinks())
	}
	if snap.NumExternalLinks() != w.NumExternalLinks() {
		t.Fatalf("final snapshot external links %d, web %d",
			snap.NumExternalLinks(), w.NumExternalLinks())
	}
}

func TestDifferentSeedsDifferentOrder(t *testing.T) {
	w := web(t, 1500)
	c1, _ := New(w, 1)
	c2, _ := New(w, 2)
	c1.Crawl(400)
	c2.Crawl(400)
	_, to1, err := c1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, to2, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	set1 := map[int32]bool{}
	for _, p := range to1 {
		set1[p] = true
	}
	for _, p := range to2 {
		if !set1[p] {
			same = false
			break
		}
	}
	if same && len(to1) == len(to2) {
		t.Fatal("different seeds crawled the identical page set — no order dependence modeled")
	}
}

// The §4.1 determinism claim: under hash partitioning, a page that
// appears in two different crawls (different discovery orders, different
// subsets) is assigned to the same ranker both times. Under random
// partitioning it generally is not.
func TestRecrawlPartitionDeterminism(t *testing.T) {
	w := web(t, 4000)
	ids := make([]nodeid.ID, 16)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(seed uint64, n int) (*webgraph.Graph, []int32) {
		c, err := New(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		c.Crawl(n)
		g, toWeb, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return g, toWeb
	}
	g1, to1 := snap(1, 2500)
	g2, to2 := snap(99, 3000) // a later, larger recrawl in another order

	for _, strat := range []partition.Strategy{partition.BySite, partition.ByPage} {
		a1, err := partition.Assign(g1, ov, strat, 7)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := partition.Assign(g2, ov, strat, 8) // seed must not matter
		if err != nil {
			t.Fatal(err)
		}
		idx2 := map[int32]int32{}
		for i, wp := range to2 {
			idx2[wp] = int32(i)
		}
		for i, wp := range to1 {
			j, ok := idx2[wp]
			if !ok {
				continue
			}
			if a1.GroupOf[i] != a2.GroupOf[j] {
				t.Fatalf("%v: page %d moved ranker across recrawls (%d -> %d)",
					strat, wp, a1.GroupOf[i], a2.GroupOf[j])
			}
		}
	}
	// Random partitioning moves pages across recrawls.
	a1, err := partition.Assign(g1, ov, partition.Random, 7)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := partition.Assign(g2, ov, partition.Random, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx2 := map[int32]int32{}
	for i, wp := range to2 {
		idx2[wp] = int32(i)
	}
	moved := 0
	shared := 0
	for i, wp := range to1 {
		if j, ok := idx2[wp]; ok {
			shared++
			if a1.GroupOf[i] != a2.GroupOf[j] {
				moved++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no shared pages between crawls")
	}
	if float64(moved)/float64(shared) < 0.5 {
		t.Fatalf("random partitioning moved only %d/%d shared pages", moved, shared)
	}
}

func TestCarryOver(t *testing.T) {
	prev := []int32{10, 20, 30}
	next := []int32{20, 30, 40, 10}
	co := CarryOver(prev, next)
	want := []int32{1, 2, -1, 0}
	for i := range want {
		if co[i] != want[i] {
			t.Fatalf("carry-over = %v, want %v", co, want)
		}
	}
}

func TestNewNilWeb(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("nil web accepted")
	}
}

func TestCrawlDeterministicInSeed(t *testing.T) {
	w := web(t, 1000)
	c1, _ := New(w, 42)
	c2, _ := New(w, 42)
	c1.Crawl(600)
	c2.Crawl(600)
	_, to1, err := c1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, to2, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(to1) != len(to2) {
		t.Fatal("same seed crawled different amounts")
	}
	for i := range to1 {
		if to1[i] != to2[i] {
			t.Fatal("same seed crawled different pages")
		}
	}
}
