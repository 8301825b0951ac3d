// Package chord implements the Chord structured overlay (Stoica et al.,
// SIGCOMM 2001) behind the same surface as package pastry: finger
// tables, successor lists, and greedy closest-preceding-finger routing
// with its ~½·log₂(N) hop counts.
//
// The paper runs on Pastry but cites Chord, CAN, and Tapestry as equal
// substrates; this second overlay exists to demonstrate (and test) that
// the distributed page-ranking layer is overlay-agnostic. As in package
// pastry, membership is fixed at construction: New computes every finger
// table and successor list once, the state Chord's stabilization protocol
// converges to.
package chord

import (
	"fmt"
	"sort"

	"p2prank/internal/nodeid"
)

// successors is the length of each node's successor list (fault
// tolerance and the last routing step).
const successors = 8

type state struct {
	// fingers[k] is the node index of successor(id + 2^k), deduplicated
	// to -1 when equal to the previous finger.
	fingers []int
	// succs is the successor list, nearest first.
	succs []int
	pred  int
}

// Overlay is a Chord ring over a fixed membership.
type Overlay struct {
	ids   []nodeid.ID
	nodes []state
	// sorted holds every node index, ordered by ID.
	sorted []int
}

// New builds a Chord overlay over the given node IDs, each tracking
// eight successors.
func New(ids []nodeid.ID) (*Overlay, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("chord: no nodes")
	}
	sorted, err := nodeid.Ring(ids)
	if err != nil {
		return nil, fmt.Errorf("chord: %w", err)
	}
	o := &Overlay{
		ids:    append([]nodeid.ID(nil), ids...),
		nodes:  make([]state, len(ids)),
		sorted: sorted,
	}
	o.build()
	return o, nil
}

// NumNodes returns the membership size.
func (o *Overlay) NumNodes() int { return len(o.ids) }

// NodeID returns node i's ring identifier.
func (o *Overlay) NodeID(i int) nodeid.ID { return o.ids[i] }

// build fills every node's predecessor, successor list, and finger
// table from the sorted ring.
func (o *Overlay) build() {
	n := len(o.sorted)
	succN := min(successors, n-1)
	for pos, idx := range o.sorted {
		st := &o.nodes[idx]
		st.pred = o.sorted[(pos-1+n)%n]
		st.succs = make([]int, 0, succN)
		for k := 1; k <= succN; k++ {
			st.succs = append(st.succs, o.sorted[(pos+k)%n])
		}
		st.fingers = make([]int, nodeid.Bits)
		prev := -1
		for k := 0; k < nodeid.Bits; k++ {
			target := o.ids[idx].AddPow2(k)
			f := o.successorOf(target)
			if f == prev || f == idx {
				st.fingers[k] = -1
				continue
			}
			st.fingers[k] = f
			prev = f
		}
	}
}

// successorOf returns the first node clockwise from key (the node whose
// ID is ≥ key, wrapping).
func (o *Overlay) successorOf(key nodeid.ID) int {
	n := len(o.sorted)
	pos := sort.Search(n, func(i int) bool {
		return o.ids[o.sorted[i]].Cmp(key) >= 0
	})
	return o.sorted[pos%n]
}

// Owner returns the node responsible for key: Chord assigns a key
// to its successor.
func (o *Overlay) Owner(key nodeid.ID) int { return o.successorOf(key) }

// NextHop implements Chord's greedy routing: if self owns the key stop;
// if the key falls between self and a successor-list entry jump straight
// to it; otherwise forward to the closest preceding finger.
func (o *Overlay) NextHop(i int, key nodeid.ID) int {
	st := &o.nodes[i]
	self := o.ids[i]
	if len(o.ids) == 1 {
		return i
	}
	// Self owns key when key ∈ (pred, self].
	if nodeid.BetweenIncl(key, o.ids[st.pred], self) {
		return i
	}
	// Successor-list shortcut: first list entry at or past the key.
	prev := self
	for _, s := range st.succs {
		if nodeid.BetweenIncl(key, prev, o.ids[s]) {
			return s
		}
		prev = o.ids[s]
	}
	// Closest preceding finger: highest finger strictly inside
	// (self, key).
	for k := len(st.fingers) - 1; k >= 0; k-- {
		f := st.fingers[k]
		if f < 0 {
			continue
		}
		if nodeid.Between(o.ids[f], self, key) {
			return f
		}
	}
	// Fall back to the immediate successor; it is always closer on the
	// ring.
	return st.succs[0]
}

// Neighbors returns node i's overlay links: predecessor, successor
// list, and fingers, deduplicated and sorted.
func (o *Overlay) Neighbors(i int) []int {
	st := &o.nodes[i]
	set := make(map[int]struct{}, len(st.succs)+len(st.fingers)+1)
	add := func(c int) {
		if c >= 0 && c != i {
			set[c] = struct{}{}
		}
	}
	add(st.pred)
	for _, c := range st.succs {
		add(c)
	}
	for _, c := range st.fingers {
		add(c)
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
