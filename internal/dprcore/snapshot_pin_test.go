package dprcore_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/transport"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// loopbackSender hands every chunk straight to its destination loop.
type loopbackSender struct{ loops []*dprcore.Loop }

func (s *loopbackSender) Send(from int, c transport.ScoreChunk) error {
	return s.loops[c.DstGroup].Deliver(c)
}

func (s *loopbackSender) Flush(from int) error { return nil }

// buildEquivGroups partitions a seeded 800-page crawl over three
// rankers on a Pastry overlay.
func buildEquivGroups(t *testing.T) []*dprcore.Group {
	t.Helper()
	gcfg := webgraph.DefaultGenConfig(800)
	gcfg.Seed = 7
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]nodeid.ID, 3)
	for i := range ids {
		ids[i] = nodeid.Hash("equiv-ranker-" + string(rune('0'+i)))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := dprcore.BuildGroups(g, assign, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// The snapshot byte format is a file format: checkpoints written before
// the loop's afferent table became a slot array must still restore, so
// the bytes of one seeded three-group run are pinned to the hash the
// map-based loop produced (captured at the parent of that change).
func TestSnapshotBytesPinned(t *testing.T) {
	groups := buildEquivGroups(t)
	p := dprcore.Params{Alg: dprcore.DPR1, Alpha: 0.85, SendProb: 0.7}
	s := &loopbackSender{}
	root := xrand.New(99)
	for _, grp := range groups {
		l, err := dprcore.NewLoop(grp, p, 5, s, root.Fork())
		if err != nil {
			t.Fatal(err)
		}
		s.loops = append(s.loops, l)
	}
	for round := 0; round < 6; round++ {
		for _, l := range s.loops {
			l.Step()
		}
	}
	h := fnv.New64a()
	tableBytes := 0 // what the snapshots hold beyond header, ranks and two empty tables
	for _, l := range s.loops {
		snap := l.Snapshot()
		tableBytes += len(snap) - (29 + 8*l.Group().N())
		h.Write(snap)
	}
	if tableBytes < 1000 {
		t.Fatalf("the snapshots' chunk tables hold %d bytes: the scenario is trivial", tableBytes)
	}
	const want = "0x7554ac2f9ee72686"
	if got := fmt.Sprintf("%#016x", h.Sum64()); got != want {
		t.Fatalf("snapshot bytes hash to %s, pinned %s", got, want)
	}
}
