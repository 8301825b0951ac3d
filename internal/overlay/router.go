package overlay

import "fmt"

// Router memoizes next hops over a static overlay, addressed by dense
// node index on both sides: NextHop(i, dst) is the overlay's
// NextHop(i, NodeID(dst)), asked of the overlay once per (i, dst) pair.
// It is the one route memo of the rank path (the transport fabric
// routes through it, telemetry attributes hops from it); its storage is
// proportional to the pairs actually routed, so it has one shape at
// every node count. A Router belongs to one goroutine (or one lock).
type Router struct {
	ov   Network
	rows []hopTable // per source node; empty until that node first routes
}

// hopTable is one node's open-addressed, linearly probed table from
// destination index to next hop. Its length is a power of two.
type hopTable struct {
	slots []hopSlot
	used  int
}

// hopSlot stores the destination index plus one, so the zero value is
// an empty slot.
type hopSlot struct{ dst1, next int32 }

// NewRouter returns an empty router over ov.
func NewRouter(ov Network) *Router {
	return &Router{ov: ov, rows: make([]hopTable, ov.NumNodes())}
}

// NumNodes returns the number of nodes of the ring routed over.
func (r *Router) NumNodes() int { return len(r.rows) }

// NextHop returns the next node on the route from node i toward node
// dst, or i itself when the route has arrived.
//
//p2plint:hotpath -- asked once per chunk per hop by the transport fabric
func (r *Router) NextHop(i, dst int) int {
	t := &r.rows[i]
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	key := int32(dst + 1)
	s := t.find(key)
	if s.dst1 == 0 {
		*s = hopSlot{dst1: key, next: int32(r.ov.NextHop(i, r.ov.NodeID(dst)))}
		t.used++
	}
	return int(s.next)
}

// Hops returns the number of overlay hops from node from to node dst
// (0 when from is where dst's route ends), walking memoized next hops
// so no path is stored. An overlay that routes in a cycle is a broken
// routing table and panics.
func (r *Router) Hops(from, dst int) int {
	for cur, h := from, 0; ; h++ {
		next := r.NextHop(cur, dst)
		if next == cur {
			return h
		}
		if h >= maxRouteHops {
			panic(fmt.Sprintf("overlay: route from %d to node %d exceeded %d hops", from, dst, maxRouteHops))
		}
		cur = next
	}
}

// find returns the slot holding key, or the empty slot where it
// belongs. The table must have an empty slot.
func (t *hopTable) find(key int32) *hopSlot {
	mask := uint32(len(t.slots) - 1)
	for h := uint32(key) * 0x9e3779b1 & mask; ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.dst1 == key || s.dst1 == 0 {
			return s
		}
	}
}

// grow doubles the table (from nothing to 8 slots) and reinserts.
func (t *hopTable) grow() {
	old := t.slots
	//p2plint:allow hotalloc -- memo growth, amortized over the pairs a node routes
	t.slots = make([]hopSlot, max(8, 2*len(old)))
	for _, s := range old {
		if s.dst1 != 0 {
			*t.find(s.dst1) = s
		}
	}
}
