package dprcore

import (
	"fmt"

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
//
// The efferent tables are laid out by counting passes, not a sort.
// Every cross-group link is a record (destination page, source page),
// and a destination page v owns a slot of records; the slots are
// ordered by (GroupOf[v], LocalIdx[v]). A counting pass sizes each
// slot, a placing pass walks the sources in ascending order into their
// slots, and a dealing pass walks the slots in order and hands each
// record to its source's group. A group therefore meets its records in
// (destination group, destination page, source page) order: parallel
// links side by side and every destination's entries in their final
// order.
func BuildGroups(g *webgraph.Graph, a *partition.Assignment, alpha float64) ([]*Group, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("dprcore: alpha = %v, must be in (0,1)", alpha)
	}
	n := g.NumPages()
	// The counting pass: each group's inner and efferent link counts,
	// and in slot[v] the number of cross-group links into page v.
	innerN := make([]int, a.K)
	effN := make([]int, a.K)
	slot := make([]int, n)
	innerLinks := 0
	for p := range n {
		gu := a.GroupOf[p]
		for _, v := range g.InternalOut(int32(p)) {
			if a.GroupOf[v] == gu {
				innerN[gu]++
				innerLinks++
			} else {
				effN[gu]++
				slot[v]++
			}
		}
	}
	// A prefix sum in slot order turns each count into the slot's start:
	// its cursor for the placing pass.
	effLinks := 0
	for _, pages := range a.Pages {
		for _, v := range pages {
			slot[v], effLinks = effLinks, effLinks+slot[v]
		}
	}
	// The inner lists are one allocation carved into per-group spans.
	inner := make([][][2]int32, a.K)
	innerAll := make([][2]int32, innerLinks)
	for i := range a.K {
		inner[i], innerAll = innerAll[:0:innerN[i]], innerAll[innerN[i]:]
	}
	// The placing pass: sources in ascending order, so each slot's
	// records end up ascending. Afterwards slot[v] is the end of v's
	// records.
	src := make([]int32, effLinks)
	for p := range n {
		u := int32(p)
		gu := a.GroupOf[u]
		for _, v := range g.InternalOut(u) {
			if a.GroupOf[v] == gu {
				inner[gu] = append(inner[gu], [2]int32{a.LocalIdx[u], a.LocalIdx[v]})
			} else {
				src[slot[v]] = u
				slot[v]++
			}
		}
	}
	groups := make([]*Group, a.K)
	for i, pages := range a.Pages {
		deg := make([]int32, len(pages))
		for li, p := range pages {
			deg[li] = int32(g.OutDegree(p))
		}
		sys, err := pagerank.NewGroupSystem(len(pages), inner[i], deg, alpha)
		if err != nil {
			return nil, fmt.Errorf("dprcore: group %d: %w", i, err)
		}
		groups[i] = &Group{
			Index:    i,
			Pages:    pages,
			Deg:      deg,
			Sys:      sys,
			Eff:      make([]EffEntry, 0, effN[i]),
			EffLinks: int64(effN[i]),
		}
	}
	// The dealing pass. For the receiving group, a new destination
	// group opens a destination, a record equal to the last one is a
	// parallel link, and a new destination page is one more entry of
	// the chunk Y merges to.
	next := 0
	for gv, pages := range a.Pages {
		for dl, v := range pages {
			for _, u := range src[next:slot[v]] {
				grp := groups[a.GroupOf[u]]
				e := EffEntry{LocalSrc: a.LocalIdx[u], DstLocal: int32(dl), Links: 1}
				d := len(grp.EffDsts) - 1
				if d < 0 || grp.EffDsts[d] != int32(gv) {
					grp.EffDsts = append(grp.EffDsts, int32(gv))
					grp.EffOff = append(grp.EffOff, int32(len(grp.Eff)))
					grp.EffMerged = append(grp.EffMerged, 1)
				} else if last := &grp.Eff[len(grp.Eff)-1]; last.DstLocal != e.DstLocal {
					grp.EffMerged[d]++
				} else if last.LocalSrc == e.LocalSrc {
					last.Links++
					continue
				}
				grp.Eff = append(grp.Eff, e)
			}
			next = slot[v]
		}
	}
	// Close each offset table. AffSrcs is the transpose of EffDsts;
	// filling it in group order leaves every list ascending.
	for i, grp := range groups {
		grp.EffOff = append(grp.EffOff, int32(len(grp.Eff)))
		for _, dst := range grp.EffDsts {
			groups[dst].AffSrcs = append(groups[dst].AffSrcs, int32(i))
		}
	}
	return groups, nil
}
