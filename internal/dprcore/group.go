package dprcore

import (
	"cmp"
	"fmt"
	"slices"

	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/webgraph"
)

// EffEntry is an aggregated efferent edge: local page LocalSrc has Links
// parallel links to the page DstLocal of another group. At send time it
// contributes Links·α·R(LocalSrc)/d(LocalSrc) to that page's afferent
// rank.
type EffEntry struct {
	LocalSrc int32
	DstLocal int32
	Links    int32
}

// Group is one ranker's slice of the web graph: its pages, the
// intra-group link system, and its efferent links grouped by
// destination ranker. The per-pair state is laid out as arrays in
// ascending group order, so walking it is reproducible by construction
// and a ranker holds state only for the groups that actually link to
// or from it (§4.4).
type Group struct {
	// Index is the ranker this group belongs to.
	Index int
	// Pages holds the group's global page IDs in ascending order;
	// local index i refers to Pages[i].
	Pages []int32
	// Deg is the total out-degree d(u) per local page.
	Deg []int32
	// Sys is the open-system solver over the group's inner links.
	Sys *pagerank.GroupSystem
	// EffDsts lists, ascending, the rankers this group links to.
	EffDsts []int32
	// Eff holds every aggregated efferent entry: those toward EffDsts[k]
	// are Eff[EffOff[k]:EffOff[k+1]], sorted by (DstLocal, LocalSrc).
	Eff    []EffEntry
	EffOff []int32
	// EffMerged[k] counts the distinct destination pages toward
	// EffDsts[k]: the entry count of the chunk Y = BR merges to.
	EffMerged []int32
	// AffSrcs lists, ascending, the rankers that link to this group (the
	// transpose of EffDsts): the only sources a loop accepts chunks from.
	AffSrcs []int32
	// EffLinks is the total number of efferent link records, the
	// quantity the paper's l-bytes-per-link cost model charges.
	EffLinks int64
}

// N returns the number of pages in the group.
func (g *Group) N() int { return len(g.Pages) }

// BuildGroups slices the graph into one Group per ranker according to
// the assignment. alpha is the real-link rank fraction of §3.
func BuildGroups(g *webgraph.Graph, a *partition.Assignment, alpha float64) ([]*Group, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("dprcore: alpha = %v, must be in (0,1)", alpha)
	}
	groups := make([]*Group, a.K)
	// One record per cross-group link. Sorting a group's records by
	// (dstGroup, dstLocal, localSrc) puts parallel links side by side
	// and every destination's entries in their final order, without a
	// counting map per group.
	type effLink struct {
		dstGroup           int32
		dstLocal, localSrc int32
	}
	// One counting pass sizes every group's two lists exactly, so each
	// kind is a single allocation carved into per-group spans.
	innerN := make([]int, a.K)
	effN := make([]int, a.K)
	innerLinks, effLinks := 0, 0
	for p := 0; p < g.NumPages(); p++ {
		gu := a.GroupOf[p]
		for _, v := range g.InternalOut(int32(p)) {
			if a.GroupOf[v] == gu {
				innerN[gu]++
				innerLinks++
			} else {
				effN[gu]++
				effLinks++
			}
		}
	}
	inner := make([][][2]int32, a.K)
	eff := make([][]effLink, a.K)
	innerAll := make([][2]int32, innerLinks)
	effAll := make([]effLink, effLinks)
	for i := range a.K {
		inner[i], innerAll = innerAll[:0:innerN[i]], innerAll[innerN[i]:]
		eff[i], effAll = effAll[:0:effN[i]], effAll[effN[i]:]
	}
	for p := 0; p < g.NumPages(); p++ {
		u := int32(p)
		gu := a.GroupOf[u]
		for _, v := range g.InternalOut(u) {
			gv := a.GroupOf[v]
			if gu == gv {
				inner[gu] = append(inner[gu], [2]int32{a.LocalIdx[u], a.LocalIdx[v]})
			} else {
				eff[gu] = append(eff[gu], effLink{gv, a.LocalIdx[v], a.LocalIdx[u]})
			}
		}
	}
	for i := 0; i < a.K; i++ {
		pages := a.Pages[i]
		deg := make([]int32, len(pages))
		for li, p := range pages {
			deg[li] = int32(g.OutDegree(p))
		}
		sys, err := pagerank.NewGroupSystem(len(pages), inner[i], deg, alpha)
		if err != nil {
			return nil, fmt.Errorf("dprcore: group %d: %w", i, err)
		}
		links := eff[i]
		slices.SortFunc(links, func(x, y effLink) int {
			if c := cmp.Compare(x.dstGroup, y.dstGroup); c != 0 {
				return c
			}
			if c := cmp.Compare(x.dstLocal, y.dstLocal); c != 0 {
				return c
			}
			return cmp.Compare(x.localSrc, y.localSrc)
		})
		grp := &Group{
			Index:    i,
			Pages:    pages,
			Deg:      deg,
			Sys:      sys,
			Eff:      make([]EffEntry, 0, len(links)),
			EffLinks: int64(len(links)),
		}
		// One pass over the sorted records: a new dstGroup opens a
		// destination, a repeated record is a parallel link, a new
		// dstLocal is one more entry of the chunk Y merges to.
		for j, l := range links {
			newDst := j == 0 || l.dstGroup != links[j-1].dstGroup
			if newDst {
				grp.EffDsts = append(grp.EffDsts, l.dstGroup)
				grp.EffOff = append(grp.EffOff, int32(len(grp.Eff)))
				grp.EffMerged = append(grp.EffMerged, 0)
			} else if l == links[j-1] {
				grp.Eff[len(grp.Eff)-1].Links++
				continue
			}
			if newDst || l.dstLocal != links[j-1].dstLocal {
				grp.EffMerged[len(grp.EffMerged)-1]++
			}
			grp.Eff = append(grp.Eff, EffEntry{LocalSrc: l.localSrc, DstLocal: l.dstLocal, Links: 1})
		}
		grp.EffOff = append(grp.EffOff, int32(len(grp.Eff)))
		groups[i] = grp
	}
	// AffSrcs is the transpose of EffDsts; filling it in group order
	// leaves every list ascending.
	for i, grp := range groups {
		for _, dst := range grp.EffDsts {
			groups[dst].AffSrcs = append(groups[dst].AffSrcs, int32(i))
		}
	}
	return groups, nil
}
