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
// destination ranker.
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
	// Eff maps destination ranker index to the aggregated efferent
	// entries toward it, sorted by (DstLocal, LocalSrc).
	Eff map[int32][]EffEntry
	// EffDsts lists Eff's keys in ascending order. Loops iterate it
	// instead of the map so runs are bit-for-bit reproducible.
	EffDsts []int32
	// EffLinks is the total number of efferent link records, the
	// quantity the paper's l-bytes-per-link cost model charges.
	EffLinks int64
}

// N returns the number of pages in the group.
func (g *Group) N() int { return len(g.Pages) }

// BuildGroups slices the graph into one Group per ranker according to
// the assignment. alpha is the real-link rank fraction of §3.
func BuildGroups(g webgraph.Store, a *partition.Assignment, alpha float64) ([]*Group, error) {
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
	inner := make([][][2]int32, a.K)
	eff := make([][]effLink, a.K)
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
		sys, err := pagerank.NewGroupSystem(len(pages), inner[i], deg, nil, alpha)
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
			Eff:      make(map[int32][]EffEntry),
			EffLinks: int64(len(links)),
		}
		// The group's entries share one backing array, cut where each
		// run of dstGroup ends.
		entries := make([]EffEntry, 0, len(links))
		for j := 0; j < len(links); {
			dst, from := links[j].dstGroup, len(entries)
			for ; j < len(links) && links[j].dstGroup == dst; j++ {
				if l := links[j]; j > 0 && l == links[j-1] {
					entries[len(entries)-1].Links++
				} else {
					entries = append(entries, EffEntry{LocalSrc: l.localSrc, DstLocal: l.dstLocal, Links: 1})
				}
			}
			grp.Eff[dst] = entries[from:len(entries):len(entries)]
			grp.EffDsts = append(grp.EffDsts, dst)
		}
		groups[i] = grp
	}
	return groups, nil
}
