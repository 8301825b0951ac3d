// Package pastry implements the Pastry structured overlay (Rowstron &
// Druschel, Middleware 2001) at the fidelity the paper's experiments
// need: per-node routing tables over hex digits (b = 4), 16-node leaf
// sets, prefix routing with the leaf-set shortcut, and the ~log₁₆(N)
// lookup hop counts that drive Table 1 (h ≈ 2.5 at N=1000, 3.5 at 10⁴,
// 4.0 at 10⁵). These are the paper's settings, so they are constants.
//
// Membership is fixed at construction: New computes every leaf set and
// routing table once, the state Pastry's join protocol converges to. The
// paper's rankers sleep and restart as hosts, never leaving the ring, so
// the overlay has no join or repair protocol (its message cost is not
// part of any measured figure).
package pastry

import (
	"fmt"
	"slices"
	"sort"

	"p2prank/internal/nodeid"
)

// fanout is 2^b, the number of columns in a routing-table row.
const fanout = 1 << nodeid.DigitBits

// leafHalf is half the leaf-set size |L| = 16: the nearest nodes kept
// on each side of the ring.
const leafHalf = 8

// row is one routing-table row: the node index for each digit value at
// the row's position, or -1.
type row [fanout]int32

// state is one node's routing state.
type state struct {
	// leaves holds the leaf set: the leafHalf nearest nodes on each side
	// of the ring, by node index.
	leaves []int
	// table holds rows 0 through the node's deepest filled row; rows
	// past it would be empty.
	table []row
}

// Overlay is a Pastry network over a fixed set of member nodes.
type Overlay struct {
	ids   []nodeid.ID
	nodes []state
	// sorted holds every node index, ordered by ID.
	sorted []int
}

// New builds a Pastry overlay over the given node IDs with b = 4 and
// |L| = 16. Duplicate IDs are rejected: the ring needs distinct points.
func New(ids []nodeid.ID) (*Overlay, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("pastry: no nodes")
	}
	sorted, err := nodeid.Ring(ids)
	if err != nil {
		return nil, fmt.Errorf("pastry: %w", err)
	}
	o := &Overlay{
		ids:    append([]nodeid.ID(nil), ids...),
		nodes:  make([]state, len(ids)),
		sorted: sorted,
	}
	o.buildLeafSets()
	o.allocTables()
	o.buildTables(0, len(o.sorted), 0)
	return o, nil
}

// NumNodes returns the membership size.
func (o *Overlay) NumNodes() int { return len(o.ids) }

// NodeID returns node i's ring identifier.
func (o *Overlay) NodeID(i int) nodeid.ID { return o.ids[i] }

// buildLeafSets assigns each node its leafHalf ring neighbors on each
// side.
func (o *Overlay) buildLeafSets() {
	n := len(o.sorted)
	half := min(leafHalf, n-1)
	for pos, idx := range o.sorted {
		st := &o.nodes[idx]
		st.leaves = make([]int, 0, 2*half)
		for k := 1; k <= half; k++ {
			st.leaves = append(st.leaves, o.sorted[(pos+k)%n])
			st.leaves = append(st.leaves, o.sorted[(pos-k+2*n)%n])
		}
	}
}

// allocTables gives each node rows 0 through its deepest filled row,
// all -1, carved from one slab. A node's deepest filled row is the most
// digits it shares with any other node, and the nodes sharing the most
// with it are its ring neighbours.
func (o *Overlay) allocTables() {
	n := len(o.sorted)
	if n == 1 {
		return
	}
	depth := make([]int, n)
	total := 0
	for pos, idx := range o.sorted {
		self := o.ids[idx]
		depth[pos] = 1 + max(
			nodeid.CommonPrefixLen(self, o.ids[o.sorted[(pos+1)%n]]),
			nodeid.CommonPrefixLen(self, o.ids[o.sorted[(pos-1+n)%n]]))
		total += depth[pos]
	}
	slab := make([]row, total)
	for r := range slab {
		for d := range slab[r] {
			slab[r][d] = -1
		}
	}
	for pos, idx := range o.sorted {
		o.nodes[idx].table = slab[:depth[pos]:depth[pos]]
		slab = slab[depth[pos]:]
	}
}

// buildTables recursively partitions the sorted nodes by digit.
// All nodes in sorted[lo:hi] share the first `depth` digits; each gets
// row `depth` of its routing table filled with one representative per
// differing digit.
func (o *Overlay) buildTables(lo, hi, depth int) {
	if hi-lo <= 1 {
		return
	}
	// Partition [lo,hi) by the digit at position depth. The slice is
	// sorted, so each digit occupies a contiguous subrange.
	type span struct{ lo, hi int }
	var spans [fanout]span
	for d := range spans {
		spans[d] = span{-1, -1}
	}
	i := lo
	for i < hi {
		d := o.ids[o.sorted[i]].Digit(depth)
		j := i
		for j < hi && o.ids[o.sorted[j]].Digit(depth) == d {
			j++
		}
		spans[d] = span{i, j}
		i = j
	}
	// Each node's row `depth`: a representative of every other digit's
	// subrange. The representative is the subrange member nearest the
	// node's ring position, which is what Pastry's locality-aware
	// construction degenerates to without a proximity metric.
	for d, sp := range spans {
		if sp.lo < 0 {
			continue
		}
		for k := sp.lo; k < sp.hi; k++ {
			r := &o.nodes[o.sorted[k]].table[depth]
			for d2, sp2 := range spans {
				if d2 == d || sp2.lo < 0 {
					continue
				}
				// Nearest member of spans[d2] to position k keeps
				// entries varied across nodes yet deterministic.
				r[d2] = int32(o.sorted[nearestIn(sp2.lo, sp2.hi, k)])
			}
		}
	}
	for _, sp := range spans {
		if sp.lo >= 0 {
			o.buildTables(sp.lo, sp.hi, depth+1)
		}
	}
}

// nearestIn returns the index in [lo,hi) closest to pos.
func nearestIn(lo, hi, pos int) int {
	if pos < lo {
		return lo
	}
	if pos >= hi {
		return hi - 1
	}
	return pos // can only happen for the node's own span
}

// Owner returns the node numerically closest to key (Pastry's
// responsibility rule), breaking exact ties toward the smaller ID.
func (o *Overlay) Owner(key nodeid.ID) int {
	n := len(o.sorted)
	pos := sort.Search(n, func(i int) bool {
		return o.ids[o.sorted[i]].Cmp(key) >= 0
	})
	// Candidates: the flanking nodes on the sorted ring.
	a := o.sorted[(pos-1+n)%n]
	b := o.sorted[pos%n]
	return o.closerToKey(a, b, key)
}

// closerToKey picks whichever of nodes a, b is numerically closer to
// key, breaking distance ties toward the smaller ID.
func (o *Overlay) closerToKey(a, b int, key nodeid.ID) int {
	if a == b {
		return a
	}
	da := nodeid.AbsDist(o.ids[a], key)
	db := nodeid.AbsDist(o.ids[b], key)
	switch da.Cmp(db) {
	case -1:
		return a
	case 1:
		return b
	}
	if o.ids[a].Cmp(o.ids[b]) < 0 {
		return a
	}
	return b
}

// NextHop implements Pastry routing from node i toward key. It returns
// i when i is responsible for key.
func (o *Overlay) NextHop(i int, key nodeid.ID) int {
	st := &o.nodes[i]
	self := o.ids[i]

	// 1. Leaf-set shortcut: if key falls within the leaf set's ring
	// span, the numerically closest of {self} ∪ leaves is responsible.
	if best, ok := o.leafRoute(i, key); ok {
		return best
	}
	// 2. Prefix routing: forward to the table entry matching one more
	// digit of the key.
	l := nodeid.CommonPrefixLen(self, key)
	if l < len(st.table) {
		if t := st.table[l][key.Digit(l)]; t >= 0 {
			return int(t)
		}
	}
	// 3. Rare case: any known node sharing ≥ l digits with the key and
	// numerically closer to it than self.
	selfDist := nodeid.AbsDist(self, key)
	best := i
	bestDist := selfDist
	consider := func(c int) {
		if c < 0 {
			return
		}
		if nodeid.CommonPrefixLen(o.ids[c], key) < l {
			return
		}
		d := nodeid.AbsDist(o.ids[c], key)
		if d.Cmp(bestDist) < 0 {
			best, bestDist = c, d
		}
	}
	for _, c := range st.leaves {
		consider(c)
	}
	for r := range st.table {
		for _, c := range st.table[r] {
			consider(int(c))
		}
	}
	return best
}

// leafRoute applies the leaf-set rule: when key lies within the span of
// node i's leaf set it returns the numerically closest member of
// {i} ∪ leaves and true.
func (o *Overlay) leafRoute(i int, key nodeid.ID) (int, bool) {
	st := &o.nodes[i]
	if len(st.leaves) == 0 {
		return i, true // singleton ring: everything is ours
	}
	if len(st.leaves) >= len(o.ids)-1 {
		// Leaf set covers the entire ring; pick globally closest.
		return o.Owner(key), true
	}
	// Find the span [min, max] of the leaf set around self on the ring.
	// Leaves alternate successor/predecessor at increasing distance, so
	// the extremes are the last two entries.
	cw := st.leaves[len(st.leaves)-2]  // farthest clockwise
	ccw := st.leaves[len(st.leaves)-1] // farthest counter-clockwise
	if !nodeid.BetweenIncl(key, o.ids[ccw], o.ids[cw]) && key != o.ids[ccw] {
		return 0, false
	}
	// A key that is this node's or a leaf's own ID, as every rank-path
	// key is a ranker's, belongs to that node at distance zero: an ID
	// match finds it without comparing distances.
	if key == o.ids[i] {
		return i, true
	}
	for _, c := range st.leaves {
		if o.ids[c] == key {
			return c, true
		}
	}
	best := i
	for _, c := range st.leaves {
		best = o.closerToKey(best, c, key)
	}
	return best, true
}

// Neighbors returns node i's overlay links: the union of its leaf set
// and routing-table entries, deduplicated and sorted. Its size is
// the per-node neighbor count g in the paper's formula S_it = gN.
func (o *Overlay) Neighbors(i int) []int {
	st := &o.nodes[i]
	// Collected into a slice and deduplicated after sorting: the routing
	// table is mostly empty slots, so a set sized for it costs far more
	// than the handful of links it ends up holding.
	out := append([]int(nil), st.leaves...)
	for r := range st.table {
		for _, c := range st.table[r] {
			if c >= 0 {
				out = append(out, int(c))
			}
		}
	}
	sort.Ints(out)
	return slices.Compact(out)
}
