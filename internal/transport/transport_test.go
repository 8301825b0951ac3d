package transport

import (
	"fmt"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pastry"
	"p2prank/internal/simnet"
)

type harness struct {
	sim *simnet.Simulator
	net *simnet.Network
	ov  *pastry.Overlay
	fab *Fabric
	got [][]ScoreChunk
}

func newHarness(t testing.TB, k int, kind Kind) *harness {
	t.Helper()
	sim := simnet.New(123)
	net, err := simnet.NewNetwork(sim, simnet.DefaultNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := NewFabric(net, ov, kind, DefaultSizeModel())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{sim: sim, net: net, ov: ov, fab: fab, got: make([][]ScoreChunk, k)}
	for i := 0; i < k; i++ {
		i := i
		if err := fab.Register(i, func(c ScoreChunk) { h.got[i] = append(h.got[i], c) }); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func chunk(src, dst, links int) ScoreChunk {
	return ScoreChunk{
		SrcGroup: int32(src),
		DstGroup: int32(dst),
		Links:    int64(links),
		Entries:  []ScoreEntry{{DstLocal: 0, Value: 0.5}},
	}
}

func TestDirectDelivery(t *testing.T) {
	h := newHarness(t, 8, Direct)
	if err := h.fab.Send(0, chunk(0, 5, 3)); err != nil {
		t.Fatal(err)
	}
	h.sim.Run(0)
	if len(h.got[5]) != 1 {
		t.Fatalf("destination got %d chunks", len(h.got[5]))
	}
	c := h.got[5][0]
	if c.SrcGroup != 0 || c.Links != 3 {
		t.Fatalf("chunk = %+v", c)
	}
	for i, gs := range h.got {
		if i != 5 && len(gs) != 0 {
			t.Fatalf("ranker %d received stray chunks", i)
		}
	}
}

func TestDirectLookupAccounting(t *testing.T) {
	h := newHarness(t, 32, Direct)
	hops, err := overlay.Hops(h.ov, 1, h.ov.NodeID(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.fab.Send(1, chunk(1, 20, 2)); err != nil {
		t.Fatal(err)
	}
	h.sim.Run(0)
	st := h.fab.Stats()
	if st.LookupMessages != int64(hops) {
		t.Fatalf("lookup messages = %d, route hops = %d", st.LookupMessages, hops)
	}
	if st.DataMessages != 1 {
		t.Fatalf("data messages = %d", st.DataMessages)
	}
	sm := DefaultSizeModel()
	if want := sm.HeaderBytes + 2*sm.BytesPerLink; st.DataBytes != want {
		t.Fatalf("data bytes = %d, want %d", st.DataBytes, want)
	}
	if want := int64(hops) * (sm.LookupBytes + sm.HeaderBytes); st.LookupBytes != want {
		t.Fatalf("lookup bytes = %d, want %d", st.LookupBytes, want)
	}
}

func TestIndirectDelivery(t *testing.T) {
	h := newHarness(t, 32, Indirect)
	if err := h.fab.Send(3, chunk(3, 27, 4)); err != nil {
		t.Fatal(err)
	}
	// Nothing moves before Flush.
	h.sim.Run(0)
	if len(h.got[27]) != 0 {
		t.Fatal("chunk moved before Flush")
	}
	if err := h.fab.Flush(3); err != nil {
		t.Fatal(err)
	}
	h.sim.Run(0)
	if len(h.got[27]) != 1 {
		t.Fatalf("destination got %d chunks", len(h.got[27]))
	}
	if h.fab.Stats().LookupMessages != 0 {
		t.Fatal("indirect transmission performed lookups")
	}
}

func TestIndirectAllPairs(t *testing.T) {
	const k = 24
	h := newHarness(t, k, Indirect)
	for src := 0; src < k; src++ {
		for dst := 0; dst < k; dst++ {
			if src == dst {
				continue
			}
			if err := h.fab.Send(src, chunk(src, dst, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.fab.Flush(src); err != nil {
			t.Fatal(err)
		}
	}
	h.sim.Run(0)
	for dst := 0; dst < k; dst++ {
		if len(h.got[dst]) != k-1 {
			t.Fatalf("ranker %d received %d chunks, want %d", dst, len(h.got[dst]), k-1)
		}
		seen := map[int32]bool{}
		for _, c := range h.got[dst] {
			if int(c.DstGroup) != dst {
				t.Fatalf("misrouted chunk %+v at %d", c, dst)
			}
			if seen[c.SrcGroup] {
				t.Fatalf("duplicate chunk from %d at %d", c.SrcGroup, dst)
			}
			seen[c.SrcGroup] = true
		}
	}
}

func TestDirectAllPairs(t *testing.T) {
	const k = 16
	h := newHarness(t, k, Direct)
	for src := 0; src < k; src++ {
		for dst := 0; dst < k; dst++ {
			if src != dst {
				if err := h.fab.Send(src, chunk(src, dst, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	h.sim.Run(0)
	for dst := 0; dst < k; dst++ {
		if len(h.got[dst]) != k-1 {
			t.Fatalf("ranker %d received %d chunks", dst, len(h.got[dst]))
		}
	}
}

// The §4.4 scalability claim: for all-pairs traffic, indirect
// transmission needs far fewer messages than direct once N is past the
// crossover (direct pays (h+1)·N², indirect g·N plus relays).
func TestIndirectFewerMessagesThanDirect(t *testing.T) {
	const k = 64
	count := func(kind Kind) int64 {
		h := newHarness(t, k, kind)
		for src := 0; src < k; src++ {
			for dst := 0; dst < k; dst++ {
				if src != dst {
					if err := h.fab.Send(src, chunk(src, dst, 1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := h.fab.Flush(src); err != nil {
				t.Fatal(err)
			}
		}
		h.sim.Run(0)
		// Every chunk must arrive under both schemes.
		for dst := 0; dst < k; dst++ {
			if len(h.got[dst]) != k-1 {
				t.Fatalf("%v: ranker %d received %d chunks", kind, dst, len(h.got[dst]))
			}
		}
		return h.net.TotalStats().MessagesSent
	}
	direct := count(Direct)
	indirect := count(Indirect)
	if indirect >= direct {
		t.Fatalf("indirect used %d messages, direct %d", indirect, direct)
	}
}

func TestIndirectBatchesSharedNextHop(t *testing.T) {
	const k = 48
	h := newHarness(t, k, Indirect)
	// Node 0 sends to every other group but flushes once: the number
	// of outgoing messages equals the number of distinct next hops,
	// which is at most its neighbor count, well below k-1.
	for dst := 1; dst < k; dst++ {
		if err := h.fab.Send(0, chunk(0, dst, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.fab.Flush(0); err != nil {
		t.Fatal(err)
	}
	firstWave := h.net.TotalStats().MessagesSent // only node 0 has sent
	maxNext := int64(len(h.ov.Neighbors(0)))
	if firstWave > maxNext {
		t.Fatalf("node 0 sent %d packages, has %d neighbors", firstWave, maxNext)
	}
	if firstWave >= int64(k-1) {
		t.Fatalf("no batching: %d packages for %d destinations", firstWave, k-1)
	}
	h.sim.Run(0)
	total := 0
	for dst := 1; dst < k; dst++ {
		total += len(h.got[dst])
	}
	if total != k-1 {
		t.Fatalf("delivered %d of %d chunks", total, k-1)
	}
}

func TestSendErrors(t *testing.T) {
	h := newHarness(t, 4, Direct)
	if err := h.fab.Send(1, chunk(1, 1, 1)); err == nil {
		t.Error("self-send accepted")
	}
	if err := h.fab.Send(1, chunk(1, 9, 1)); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestRegisterErrors(t *testing.T) {
	sim := simnet.New(1)
	net, err := simnet.NewNetwork(sim, simnet.DefaultNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := []nodeid.ID{nodeid.Hash("a"), nodeid.Hash("b")}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := NewFabric(net, ov, Indirect, DefaultSizeModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Register(5, func(ScoreChunk) {}); err == nil {
		t.Error("out-of-range register accepted")
	}
	if err := fab.Register(0, nil); err == nil {
		t.Error("nil deliver accepted")
	}
	if err := fab.Register(0, func(ScoreChunk) {}); err != nil {
		t.Fatal(err)
	}
	if err := fab.Register(0, func(ScoreChunk) {}); err == nil {
		t.Error("double register accepted")
	}
	if err := fab.Send(1, chunk(1, 0, 1)); err == nil {
		t.Error("send from unregistered ranker accepted")
	}
	if err := fab.Flush(1); err == nil {
		t.Error("flush from unregistered ranker accepted")
	}
}

func TestNewFabricValidation(t *testing.T) {
	sim := simnet.New(1)
	net, _ := simnet.NewNetwork(sim, simnet.DefaultNetConfig())
	ids := []nodeid.ID{nodeid.Hash("a")}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFabric(net, ov, Kind(9), DefaultSizeModel()); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := NewFabric(net, ov, Direct, SizeModel{}); err == nil {
		t.Error("zero size model accepted")
	}
}

// bounceOverlay is a broken three-node ring: nodes 0 and 1 forward to
// each other whatever the key, so no route reaches node 2.
type bounceOverlay struct{ *pastry.Overlay }

func (bounceOverlay) NextHop(i int, _ nodeid.ID) int { return (i + 1) % 2 }

// A ring that routes in a cycle is a bug, not input: telemetry's hop
// count and a direct send's lookup walk panic on it instead of looping.
func TestCyclicOverlayPanics(t *testing.T) {
	for _, kind := range []Kind{Indirect, Direct} {
		sim := simnet.New(1)
		net, _ := simnet.NewNetwork(sim, simnet.DefaultNetConfig())
		ov, err := pastry.New(nodeid.RankerIDs(3))
		if err != nil {
			t.Fatal(err)
		}
		fab, err := NewFabric(net, bounceOverlay{ov}, kind, DefaultSizeModel())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := fab.Register(i, func(ScoreChunk) {}); err != nil {
				t.Fatal(err)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: cyclic route not detected", kind)
				}
			}()
			if kind == Indirect {
				fab.Hops(0, 2)
			} else {
				_ = fab.Send(0, ScoreChunk{SrcGroup: 0, DstGroup: 2})
			}
		}()
	}
}

func TestKindString(t *testing.T) {
	if Direct.String() != "direct" || Indirect.String() != "indirect" {
		t.Fatal("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func BenchmarkIndirectAllPairs64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness(b, 64, Indirect)
		for src := 0; src < 64; src++ {
			for dst := 0; dst < 64; dst++ {
				if src != dst {
					if err := h.fab.Send(src, chunk(src, dst, 1)); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := h.fab.Flush(src); err != nil {
				b.Fatal(err)
			}
		}
		h.sim.Run(0)
	}
}
