package dprcore_test

import (
	"reflect"
	"sort"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
	"p2prank/internal/webgraph"
)

// BuildGroups aggregates efferent links by sorting; this recounts them
// the obvious way — a map keyed by (destination group, source page,
// destination page) — on a by-page partition, where nearly every link
// crosses groups, and wants the same tables in the same order: the flat
// entries and their offsets, the merged counts, and the afferent
// transpose.
func TestBuildGroupsMatchesCountingMap(t *testing.T) {
	gcfg := webgraph.DefaultGenConfig(3000)
	gcfg.Sites = 20
	gcfg.Seed = 11
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := engine.BuildOverlay(engine.Pastry, 40)
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Assign(g, ov, partition.ByPage, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := dprcore.BuildGroups(g, a, 0.85)
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ dst, src, dstLocal int32 }
	want := make([]map[key]int32, a.K)
	for i := range want {
		want[i] = map[key]int32{}
	}
	parallel := false
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
	if !parallel {
		t.Fatal("the crawl has no parallel cross-group links; pick another seed")
	}
	aff := make([]map[int32]bool, a.K) // who links to whom, the transpose
	for i := range aff {
		aff[i] = map[int32]bool{}
	}
	for i, grp := range groups {
		eff := map[int32][]dprcore.EffEntry{}
		var links int64
		for k, n := range want[i] {
			eff[k.dst] = append(eff[k.dst], dprcore.EffEntry{LocalSrc: k.src, DstLocal: k.dstLocal, Links: n})
			links += int64(n)
			aff[k.dst][int32(i)] = true
		}
		var dsts []int32
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
		if !reflect.DeepEqual(grp.EffDsts, dsts) || grp.EffLinks != links {
			t.Fatalf("group %d: efferent destinations differ from the counted ones", i)
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
		if !reflect.DeepEqual(grp.AffSrcs, srcs) {
			t.Fatalf("group %d: AffSrcs = %v, counted %v", i, grp.AffSrcs, srcs)
		}
	}
}
