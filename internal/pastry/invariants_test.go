package pastry

import (
	"fmt"
	"sort"
	"testing"

	"p2prank/internal/nodeid"
)

// Structural invariants of the Pastry state, checked directly rather
// than through routing behaviour.

// Every routing-table entry at row ℓ, column d must share exactly the
// node's first ℓ digits and have digit d at position ℓ.
func TestRoutingTableEntryInvariant(t *testing.T) {
	o := newOverlay(t, 150)
	if err := checkTables(o); err != nil {
		t.Fatal(err)
	}
}

// checkTables holds every node's routing table to Pastry's structure:
// an entry in row r shares exactly r digits with its node and has its
// column as digit r, and the table ends at the node's deepest filled
// row.
func checkTables(o *Overlay) error {
	for i := 0; i < o.NumNodes(); i++ {
		st := &o.nodes[i]
		self := o.NodeID(i)
		for r := range st.table {
			filled := false
			for d, e := range st.table[r] {
				if e < 0 {
					continue
				}
				filled = true
				eid := o.NodeID(int(e))
				if got := nodeid.CommonPrefixLen(self, eid); got != r {
					return fmt.Errorf("node %d row %d col %d: entry shares %d digits", i, r, d, got)
				}
				if got := eid.Digit(r); got != d {
					return fmt.Errorf("node %d row %d col %d: entry digit %d", i, r, d, got)
				}
			}
			if !filled && r == len(st.table)-1 {
				return fmt.Errorf("node %d: last table row %d is empty", i, r)
			}
		}
	}
	return nil
}

// Leaf sets must hold exactly the nearest ring neighbors on each side.
func TestLeafSetInvariant(t *testing.T) {
	o := newOverlay(t, 120)
	// Reconstruct the sorted ring.
	ring := make([]int, o.NumNodes())
	for i := range ring {
		ring[i] = i
	}
	sort.Slice(ring, func(a, b int) bool {
		return o.NodeID(ring[a]).Cmp(o.NodeID(ring[b])) < 0
	})
	pos := make(map[int]int)
	for p, idx := range ring {
		pos[idx] = p
	}
	n := len(ring)
	half := leafHalf
	for i := 0; i < o.NumNodes(); i++ {
		want := map[int]bool{}
		for k := 1; k <= half; k++ {
			want[ring[(pos[i]+k)%n]] = true
			want[ring[(pos[i]-k+n)%n]] = true
		}
		got := map[int]bool{}
		for _, l := range o.nodes[i].leaves {
			got[l] = true
		}
		if len(got) != len(want) {
			t.Fatalf("node %d leaf set size %d, want %d", i, len(got), len(want))
		}
		for l := range want {
			if !got[l] {
				t.Fatalf("node %d leaf set missing ring neighbor %d", i, l)
			}
		}
	}
}

// Routing makes monotone progress: along any route, the prefix match
// with the key never decreases, and when it stays equal the numeric
// distance shrinks.
func TestRouteProgressInvariant(t *testing.T) {
	o := newOverlay(t, 200)
	for _, key := range randKeys(100, 77) {
		cur := 3
		for hop := 0; hop < 64; hop++ {
			next := o.NextHop(cur, key)
			if next == cur {
				break
			}
			curPfx := nodeid.CommonPrefixLen(o.NodeID(cur), key)
			nextPfx := nodeid.CommonPrefixLen(o.NodeID(next), key)
			if nextPfx < curPfx {
				// Allowed only via the leaf-set rule, which must then
				// deliver the final owner.
				if o.NextHop(next, key) != next {
					t.Fatalf("key %s: prefix regressed %d->%d without terminating", key, curPfx, nextPfx)
				}
			}
			if nextPfx == curPfx {
				dc := nodeid.AbsDist(o.NodeID(cur), key)
				dn := nodeid.AbsDist(o.NodeID(next), key)
				if dn.Cmp(dc) >= 0 {
					t.Fatalf("key %s: no numeric progress at hop %d", key, hop)
				}
			}
			cur = next
		}
	}
}
