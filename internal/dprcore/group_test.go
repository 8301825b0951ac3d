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
// crosses groups, and wants the same tables in the same order.
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
	for i, grp := range groups {
		eff := map[int32][]dprcore.EffEntry{}
		var links int64
		for k, n := range want[i] {
			eff[k.dst] = append(eff[k.dst], dprcore.EffEntry{LocalSrc: k.src, DstLocal: k.dstLocal, Links: n})
			links += int64(n)
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
		if !reflect.DeepEqual(grp.EffDsts, dsts) || !reflect.DeepEqual(grp.Eff, eff) || grp.EffLinks != links {
			t.Fatalf("group %d: efferent tables differ from the counted ones", i)
		}
		// The destinations' entries share one array; none may be able
		// to grow into its neighbour.
		for dst, es := range grp.Eff {
			if cap(es) != len(es) {
				t.Fatalf("group %d → %d: entries have spare capacity %d", i, dst, cap(es)-len(es))
			}
		}
	}
}
