package pastry

import (
	"encoding/binary"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/xrand"
)

// withPrefix returns r with its leading nibbles hex digits replaced by
// base's.
func withPrefix(base, r nodeid.ID, nibbles int) nodeid.ID {
	n := nodeid.DigitBits * nibbles
	var hi, lo uint64 // masks of the bits taken from base
	switch {
	case n >= nodeid.Bits:
		return base
	case n >= 64:
		hi, lo = ^uint64(0), ^uint64(0)<<uint(nodeid.Bits-n)
	default:
		hi = ^uint64(0) << uint(64-n)
	}
	return nodeid.ID{Hi: base.Hi&hi | r.Hi&^hi, Lo: base.Lo&lo | r.Lo&^lo}
}

// refPrefixLen is CommonPrefixLen spelled bit by bit: the leading bits
// x and y share, in whole hex digits.
func refPrefixLen(x, y nodeid.ID) int {
	bit := func(v nodeid.ID, b int) uint64 {
		if b < 64 {
			return v.Hi >> uint(63-b) & 1
		}
		return v.Lo >> uint(127-b) & 1
	}
	b := 0
	for b < nodeid.Bits && bit(x, b) == bit(y, b) {
		b++
	}
	return b / nodeid.DigitBits
}

// refNextHop is Pastry's routing rule spelled out step by step, without
// NextHop's ID-equality shortcut: the leaf-set span (numerically
// closest of self and leaves), then the routing-table entry one digit
// further, then the rare-case scan of every known node that shares as
// many digits and is closer.
func refNextHop(o *Overlay, i int, key nodeid.ID) int {
	st := &o.nodes[i]
	self := o.ids[i]
	switch {
	case len(st.leaves) == 0:
		return i
	case len(st.leaves) >= len(o.ids)-1:
		return o.Owner(key)
	}
	cw, ccw := st.leaves[len(st.leaves)-2], st.leaves[len(st.leaves)-1]
	if nodeid.BetweenIncl(key, o.ids[ccw], o.ids[cw]) || key == o.ids[ccw] {
		best := i
		for _, c := range st.leaves {
			best = o.closerToKey(best, c, key)
		}
		return best
	}
	l := nodeid.CommonPrefixLen(self, key)
	if l < len(st.table) && st.table[l][key.Digit(l)] >= 0 {
		return int(st.table[l][key.Digit(l)])
	}
	best, bestDist := i, nodeid.AbsDist(self, key)
	consider := func(c int) {
		if c < 0 || nodeid.CommonPrefixLen(o.ids[c], key) < l {
			return
		}
		if d := nodeid.AbsDist(o.ids[c], key); d.Cmp(bestDist) < 0 {
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

// FuzzPastryRoutes builds rings hashed IDs never produce: 1–300 IDs
// that all share their first `shared` hex digits with a base ID and
// each a further random number of digits, so chains of nodes agree
// deep into the ID and fill routing rows that nodeid.RankerIDs never
// reaches. Every node must then route every node ID and every fuzzed
// key (taken as given and under the shared prefix) to its owner, take
// refNextHop's next hop toward every member's ID, every table must
// hold Pastry's structure, and CommonPrefixLen must match a bit-by-bit
// reference.
func FuzzPastryRoutes(f *testing.F) {
	for _, shared := range []uint8{0, 16, 31} {
		f.Add(shared, uint16(299), uint64(shared)+1, []byte("a key of sixteen"))
	}
	f.Add(uint8(28), uint16(40), uint64(7), []byte{})
	f.Fuzz(func(t *testing.T, shared uint8, n uint16, seed uint64, keyBytes []byte) {
		s := int(shared) % nodeid.Digits
		rng := xrand.New(seed)
		rand := func() nodeid.ID { return nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()} }
		base := rand()
		seen := map[nodeid.ID]bool{}
		var ids []nodeid.ID
		for j := 0; j < 1+int(n)%300; j++ {
			id := withPrefix(base, rand(), s+rng.Intn(nodeid.Digits-s+1))
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		o, err := New(ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTables(o); err != nil {
			t.Fatal(err)
		}
		keys := append([]nodeid.ID(nil), ids...)
		for len(keyBytes) > 0 && len(keys) < len(ids)+16 {
			var b [16]byte
			keyBytes = keyBytes[copy(b[:], keyBytes):]
			k := nodeid.ID{Hi: binary.BigEndian.Uint64(b[:8]), Lo: binary.BigEndian.Uint64(b[8:])}
			keys = append(keys, k, withPrefix(base, k, s))
		}
		if err := overlay.CheckConvergent(o, keys); err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			for j, id := range ids {
				if got, want := o.NextHop(i, id), refNextHop(o, i, id); got != want {
					t.Fatalf("NextHop(%d, NodeID(%d)) = %d, the reference rule says %d", i, j, got, want)
				}
			}
		}
		for j, x := range keys {
			y := keys[(j+1)%len(keys)]
			if got, want := nodeid.CommonPrefixLen(x, y), refPrefixLen(x, y); got != want {
				t.Fatalf("CommonPrefixLen(%s, %s) = %d, bit by bit %d", x, y, got, want)
			}
		}
	})
}
