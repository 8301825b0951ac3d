package overlay

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"p2prank/internal/chord"
	"p2prank/internal/nodeid"
	"p2prank/internal/pastry"
	"p2prank/internal/xrand"
)

// routeHash folds every routing decision of n into one FNV-64a sum:
// NextHop(i, NodeID(dst)) for every pair, Owner and every NextHop for
// 64 seeded random keys, and every node's Neighbors. Two overlays with
// the same sum route identically on the rankers' own IDs.
func routeHash(n Network) uint64 {
	h := fnv.New64a()
	put := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	k := n.NumNodes()
	for i := 0; i < k; i++ {
		for dst := 0; dst < k; dst++ {
			put(n.NextHop(i, n.NodeID(dst)))
		}
	}
	rng := xrand.New(64)
	for q := 0; q < 64; q++ {
		key := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		put(n.Owner(key))
		for i := 0; i < k; i++ {
			put(n.NextHop(i, key))
		}
	}
	for i := 0; i < k; i++ {
		nb := n.Neighbors(i)
		put(len(nb))
		for _, c := range nb {
			put(c)
		}
	}
	return h.Sum64()
}

// TestRoutesPinned holds both overlays' routes over nodeid.RankerIDs to
// recorded hashes, so a change to how a node stores its routing state
// cannot change a single hop. A Pastry leaf set (|L| = 16) spans the
// whole ring up to K = 17; at K = 18 one node falls outside it.
func TestRoutesPinned(t *testing.T) {
	want := map[string]map[int]uint64{
		"pastry": {
			1: 0x392519d0a519b465, 2: 0x5e591688b26c78a4, 3: 0x6b66eb4118420104,
			16: 0xc0f9eb7a9acab5a9, 17: 0x65044549ac91b3e5, 18: 0x9e88b2d132cb2c1d,
			500: 0xda4376e66f695941, 2000: 0x90b097cddca7504e,
		},
		"chord": {
			1: 0x392519d0a519b465, 2: 0x81dd79db02d938a5, 3: 0x64bbd3a8ffa3da44,
			16: 0xf254796885b81f0e, 17: 0xef389ac2bc1fcb30, 18: 0x3764b673f697dedd,
			500: 0xc641c75c24789953, 2000: 0x9ef063c914be57e2,
		},
	}
	for _, kind := range []string{"pastry", "chord"} {
		for _, k := range []int{1, 2, 3, 16, 17, 18, 500, 2000} {
			ids := nodeid.RankerIDs(k)
			var (
				ov  Network
				err error
			)
			if kind == "pastry" {
				ov, err = pastry.New(ids)
			} else {
				ov, err = chord.New(ids)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := routeHash(ov); got != want[kind][k] {
				t.Errorf("%s K=%d: route hash %#x, want %#x", kind, k, got, want[kind][k])
			}
		}
	}
}
