// Package pastry implements the Pastry structured overlay (Rowstron &
// Druschel, Middleware 2001) at the fidelity the paper's experiments
// need: per-node routing tables over base-2^b digits, leaf sets, prefix
// routing with the leaf-set shortcut, and the ~log_{2^b}(N) lookup hop
// counts that drive Table 1 (h ≈ 2.5 at N=1000, 3.5 at 10⁴, 4.0 at 10⁵
// for b=4).
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

// Config parameterizes the overlay.
type Config struct {
	// B is the number of bits per routing digit (the Pastry parameter
	// b); 2^B is the routing-table fan-out. Must divide 128. Default 4.
	B int
	// LeafSize is the total leaf-set size (split evenly between the
	// clockwise and counter-clockwise sides). Default 16.
	LeafSize int
}

// DefaultConfig returns Pastry's standard parameters: b=4, |L|=16.
func DefaultConfig() Config { return Config{B: 4, LeafSize: 16} }

func (c *Config) validate() error {
	if c.B == 0 {
		c.B = 4
	}
	if c.LeafSize == 0 {
		c.LeafSize = 16
	}
	if c.B <= 0 || nodeid.Bits%c.B != 0 {
		return fmt.Errorf("pastry: digit width %d must divide %d", c.B, nodeid.Bits)
	}
	if c.LeafSize < 2 || c.LeafSize%2 != 0 {
		return fmt.Errorf("pastry: LeafSize %d must be a positive even number", c.LeafSize)
	}
	return nil
}

// state is one node's routing state.
type state struct {
	// leaves holds the leaf set: the LeafSize/2 nearest nodes on each
	// side of the ring, by node index.
	leaves []int
	// table[row*fanout+col] is a node index or -1.
	table []int
}

// Overlay is a Pastry network over a fixed set of member nodes.
type Overlay struct {
	cfg    Config
	fanout int
	rows   int
	ids    []nodeid.ID
	nodes  []state
	// sorted holds every node index, ordered by ID.
	sorted []int
}

// New builds a Pastry overlay over the given node IDs.
// Duplicate IDs are rejected: the ring needs distinct points.
func New(ids []nodeid.ID, cfg Config) (*Overlay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("pastry: no nodes")
	}
	sorted, err := nodeid.Ring(ids)
	if err != nil {
		return nil, fmt.Errorf("pastry: %w", err)
	}
	o := &Overlay{
		cfg:    cfg,
		fanout: 1 << uint(cfg.B),
		rows:   nodeid.Bits / cfg.B,
		ids:    append([]nodeid.ID(nil), ids...),
		nodes:  make([]state, len(ids)),
		sorted: sorted,
	}
	o.buildLeafSets()
	o.buildTables(0, len(o.sorted), 0)
	return o, nil
}

// NumNodes returns the membership size.
func (o *Overlay) NumNodes() int { return len(o.ids) }

// NodeID returns node i's ring identifier.
func (o *Overlay) NodeID(i int) nodeid.ID { return o.ids[i] }

// buildLeafSets assigns each node its LeafSize/2 ring neighbors on each
// side.
func (o *Overlay) buildLeafSets() {
	n := len(o.sorted)
	half := o.cfg.LeafSize / 2
	if half > n-1 {
		half = n - 1
	}
	for pos, idx := range o.sorted {
		st := &o.nodes[idx]
		st.leaves = make([]int, 0, 2*half)
		for k := 1; k <= half; k++ {
			st.leaves = append(st.leaves, o.sorted[(pos+k)%n])
			st.leaves = append(st.leaves, o.sorted[(pos-k+2*n)%n])
		}
	}
}

// buildTables recursively partitions the sorted nodes by digit.
// All nodes in sorted[lo:hi] share the first `depth` digits; each gets
// row `depth` of its routing table filled with one representative per
// differing digit.
func (o *Overlay) buildTables(lo, hi, depth int) {
	if hi-lo <= 1 || depth >= o.rows {
		return
	}
	// Partition [lo,hi) by the digit at position depth. The slice is
	// sorted, so each digit occupies a contiguous subrange.
	type span struct{ lo, hi int }
	spans := make([]span, o.fanout)
	for d := range spans {
		spans[d] = span{-1, -1}
	}
	i := lo
	for i < hi {
		d := o.ids[o.sorted[i]].Digit(depth, o.cfg.B)
		j := i
		for j < hi && o.ids[o.sorted[j]].Digit(depth, o.cfg.B) == d {
			j++
		}
		spans[d] = span{i, j}
		i = j
	}
	// Each node's row `depth`: a representative of every other digit's
	// subrange. The representative is the subrange member nearest the
	// node's ring position, which is what Pastry's locality-aware
	// construction degenerates to without a proximity metric.
	for d := 0; d < o.fanout; d++ {
		sp := spans[d]
		if sp.lo < 0 {
			continue
		}
		for k := sp.lo; k < sp.hi; k++ {
			idx := o.sorted[k]
			st := &o.nodes[idx]
			if st.table == nil {
				st.table = make([]int, o.rows*o.fanout)
				for t := range st.table {
					st.table[t] = -1
				}
			}
			row := st.table[depth*o.fanout : (depth+1)*o.fanout]
			for d2 := 0; d2 < o.fanout; d2++ {
				if d2 == d || spans[d2].lo < 0 {
					continue
				}
				// Nearest member of spans[d2] to position k keeps
				// entries varied across nodes yet deterministic.
				row[d2] = o.sorted[nearestIn(spans[d2].lo, spans[d2].hi, k)]
			}
		}
	}
	for d := 0; d < o.fanout; d++ {
		if spans[d].lo >= 0 {
			o.buildTables(spans[d].lo, spans[d].hi, depth+1)
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
	l := nodeid.CommonPrefixLen(self, key, o.cfg.B)
	if l < o.rows && st.table != nil {
		if t := st.table[l*o.fanout+key.Digit(l, o.cfg.B)]; t >= 0 {
			return t
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
		if nodeid.CommonPrefixLen(o.ids[c], key, o.cfg.B) < l {
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
	if st.table != nil {
		for _, c := range st.table {
			consider(c)
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
	var out []int
	for _, cs := range [2][]int{st.leaves, st.table} {
		for _, c := range cs {
			if c >= 0 && c != i {
				out = append(out, c)
			}
		}
	}
	sort.Ints(out)
	return slices.Compact(out)
}
