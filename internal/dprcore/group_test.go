package dprcore_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
	"p2prank/internal/webgraph"
)

// deployForTest generates a crawl of the given shape and partitions it
// over a K-ranker Pastry ring.
func deployForTest(t testing.TB, pages, sites, k int, strat partition.Strategy, seed uint64) (*webgraph.Graph, *partition.Assignment) {
	t.Helper()
	gcfg := webgraph.DefaultGenConfig(pages)
	gcfg.Sites = sites
	gcfg.Seed = seed
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Assign(g, ov, strat, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// checkGroupsByCountingMap recounts what BuildGroups lays out the
// obvious way — a map keyed by (destination group, source page,
// destination page) — and wants the same tables in the same order: the
// pages and degrees, the flat efferent entries and their offsets, the
// merged counts, and the afferent transpose. It reports whether the
// crawl had a parallel cross-group link (two links between the same
// pair of pages in different groups).
func checkGroupsByCountingMap(t testing.TB, g *webgraph.Graph, a *partition.Assignment, groups []*dprcore.Group) (parallel bool) {
	t.Helper()
	if len(groups) != a.K {
		t.Fatalf("%d groups for K = %d", len(groups), a.K)
	}
	type key struct{ dst, src, dstLocal int32 }
	want := make([]map[key]int32, a.K)
	for i := range want {
		want[i] = map[key]int32{}
	}
	for p := 0; p < g.NumPages(); p++ {
		u := int32(p)
		for _, v := range g.InternalOut(u) {
			if gu, gv := a.GroupOf[u], a.GroupOf[v]; gu != gv {
				k := key{gv, a.LocalIdx[u], a.LocalIdx[v]}
				want[gu][k]++
				parallel = parallel || want[gu][k] > 1
			}
		}
	}
	aff := make([]map[int32]bool, a.K) // who links to whom, the transpose
	for i := range aff {
		aff[i] = map[int32]bool{}
	}
	for i, grp := range groups {
		if grp.Index != i || !reflect.DeepEqual(grp.Pages, a.Pages[i]) || grp.N() != grp.Sys.N() {
			t.Fatalf("group %d: index %d, %d pages (assignment %d, system %d)", i, grp.Index, grp.N(), len(a.Pages[i]), grp.Sys.N())
		}
		for li, p := range grp.Pages {
			if int(grp.Deg[li]) != g.OutDegree(p) {
				t.Fatalf("group %d page %d: Deg %d, out-degree %d", i, p, grp.Deg[li], g.OutDegree(p))
			}
		}
		eff := map[int32][]dprcore.EffEntry{}
		var links int64
		for k, n := range want[i] {
			eff[k.dst] = append(eff[k.dst], dprcore.EffEntry{LocalSrc: k.src, DstLocal: k.dstLocal, Links: n})
			links += int64(n)
			aff[k.dst][int32(i)] = true
		}
		dsts := []int32{}
		for dst, es := range eff {
			dsts = append(dsts, dst)
			sort.Slice(es, func(x, y int) bool {
				if es[x].DstLocal != es[y].DstLocal {
					return es[x].DstLocal < es[y].DstLocal
				}
				return es[x].LocalSrc < es[y].LocalSrc
			})
		}
		sort.Slice(dsts, func(x, y int) bool { return dsts[x] < dsts[y] })
		if len(grp.EffDsts) != len(dsts) || (len(dsts) > 0 && !reflect.DeepEqual(grp.EffDsts, dsts)) || grp.EffLinks != links {
			t.Fatalf("group %d: efferent destinations %v (%d links), counted %v (%d links)", i, grp.EffDsts, grp.EffLinks, dsts, links)
		}
		// The flat layout: destination k's entries sit between its two
		// offsets, the offsets tile Eff, and EffMerged counts the
		// distinct destination pages.
		if len(grp.EffOff) != len(dsts)+1 || len(grp.EffMerged) != len(dsts) ||
			grp.EffOff[0] != 0 || int(grp.EffOff[len(dsts)]) != len(grp.Eff) {
			t.Fatalf("group %d: offset table does not tile Eff", i)
		}
		for k, dst := range dsts {
			if got := grp.Eff[grp.EffOff[k]:grp.EffOff[k+1]]; !reflect.DeepEqual(got, eff[dst]) {
				t.Fatalf("group %d → %d: entries differ from the counted ones", i, dst)
			}
			pages := map[int32]bool{}
			for _, e := range eff[dst] {
				pages[e.DstLocal] = true
			}
			if int(grp.EffMerged[k]) != len(pages) {
				t.Fatalf("group %d → %d: EffMerged = %d, counted %d pages", i, dst, grp.EffMerged[k], len(pages))
			}
		}
	}
	for i, grp := range groups {
		var srcs []int32
		for src := range aff[i] {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(x, y int) bool { return srcs[x] < srcs[y] })
		if len(grp.AffSrcs) != len(srcs) || (len(srcs) > 0 && !reflect.DeepEqual(grp.AffSrcs, srcs)) {
			t.Fatalf("group %d: AffSrcs = %v, counted %v", i, grp.AffSrcs, srcs)
		}
	}
	return parallel
}

// BuildGroups lays the efferent links out by counting passes; the
// counting-map oracle must agree on every strategy, at one ranker, at
// a few, at many, and with more rankers than pages (empty groups). The
// by-page crawl at K = 40 must contain parallel cross-group links, so
// merging them into one entry is exercised.
func TestBuildGroupsMatchesCountingMap(t *testing.T) {
	cases := []struct {
		pages, sites, k int
		strat           partition.Strategy
		seed            uint64
		needParallel    bool
	}{
		{3000, 20, 40, partition.ByPage, 11, true},
		{3000, 20, 40, partition.BySite, 11, false},
		{3000, 20, 40, partition.Random, 11, false},
		{2000, 15, 1, partition.ByPage, 3, false},
		{2000, 15, 1, partition.BySite, 3, false},
		{2000, 15, 1, partition.Random, 3, false},
		{2000, 15, 7, partition.ByPage, 5, false},
		{2000, 15, 7, partition.BySite, 5, false},
		{2000, 15, 7, partition.Random, 5, false},
		{30, 4, 64, partition.ByPage, 2, false},
		{30, 4, 64, partition.BySite, 2, false},
		{30, 4, 64, partition.Random, 2, false},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/pages=%d/K=%d", c.strat, c.pages, c.k), func(t *testing.T) {
			g, a := deployForTest(t, c.pages, c.sites, c.k, c.strat, c.seed)
			groups, err := dprcore.BuildGroups(g, a, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			if parallel := checkGroupsByCountingMap(t, g, a, groups); c.needParallel && !parallel {
				t.Fatal("the crawl has no parallel cross-group links; pick another seed")
			}
			if c.k > c.pages && partition.Cut(g, a).EmptyGroups == 0 {
				t.Fatal("more rankers than pages left no group empty")
			}
		})
	}
}

// FuzzBuildGroups draws a crawl shape, a ring size, a strategy and a
// seed from the input and holds BuildGroups to the counting-map oracle.
func FuzzBuildGroups(f *testing.F) {
	f.Add(uint16(2999), uint8(19), uint8(39), uint8(0), uint64(11))
	f.Add(uint16(200), uint8(3), uint8(1), uint8(1), uint64(3))
	f.Add(uint16(30), uint8(4), uint8(64), uint8(2), uint64(2))
	f.Add(uint16(1), uint8(1), uint8(5), uint8(0), uint64(7))
	f.Fuzz(func(t *testing.T, pages uint16, sites, k, strat uint8, seed uint64) {
		n := 1 + int(pages)%3000
		s := 1 + int(sites)%min(n, 40)
		K := 1 + int(k)%100
		g, a := deployForTest(t, n, s, K, partition.Strategy(strat%3), seed)
		groups, err := dprcore.BuildGroups(g, a, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupsByCountingMap(t, g, a, groups)
	})
}

// BenchmarkBuildGroups lays out the live cluster benchmark's crawl:
// 40,000 pages over 100 sites hashed by page onto K = 8 rankers, where
// about seven links in eight cross groups.
func BenchmarkBuildGroups(b *testing.B) {
	g, a := deployForTest(b, 40000, 100, 8, partition.ByPage, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dprcore.BuildGroups(g, a, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}
