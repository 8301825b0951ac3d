package transport_test

// Integration of wire codecs with the transport fabric and the engine.
// Lives in an external test package because internal/codec imports
// internal/transport.

import (
	"sort"
	"testing"
	"testing/quick"

	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/nodeid"
	"p2prank/internal/pastry"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

func codecGraph(t testing.TB) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(2500)
	cfg.Seed = 5
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runWithCodec(t *testing.T, g *webgraph.Graph, c transport.ChunkCodec, kind transport.Kind) *engine.Result {
	t.Helper()
	res, err := engine.Run(engine.Config{
		Params: dprcore.Params{Alg: dprcore.DPR1, T1: 0.5, T2: 3},
		Graph:  g, K: 8, MaxTime: 300, SampleEvery: 5,
		Transport: kind,
		Codec:     c,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLosslessCodecsPreserveRanks(t *testing.T) {
	g := codecGraph(t)
	base := runWithCodec(t, g, nil, transport.Indirect)
	for _, c := range []transport.ChunkCodec{codec.Plain{}, codec.Delta{}} {
		res := runWithCodec(t, g, c, transport.Indirect)
		if d := vecmath.Diff1(res.Final, base.Final); d != 0 {
			t.Errorf("%s: ranks differ from codec-less run by %v", c.Name(), d)
		}
	}
}

func TestCodecBytesLadder(t *testing.T) {
	g := codecGraph(t)
	bytesOf := func(c transport.ChunkCodec) int64 {
		return runWithCodec(t, g, c, transport.Indirect).NetStats.BytesSent
	}
	model := bytesOf(nil)
	plain := bytesOf(codec.Plain{})
	delta := bytesOf(codec.Delta{})
	quant := bytesOf(codec.NewQuantized(16))
	if plain >= model {
		t.Errorf("plain encoding (%d B) not below the 100 B/link model (%d B)", plain, model)
	}
	if delta >= plain {
		t.Errorf("delta (%d B) not below plain (%d B)", delta, plain)
	}
	if quant >= delta {
		t.Errorf("quantized (%d B) not below delta (%d B)", quant, delta)
	}
}

// A lossy codec still converges: quantization error is injected every
// exchange, but the α-contraction damps it to a floor set by the
// mantissa width.
func TestQuantizedCodecConvergesToFloor(t *testing.T) {
	g := codecGraph(t)
	res := runWithCodec(t, g, codec.NewQuantized(20), transport.Indirect)
	if res.RelErr > 1e-4 {
		t.Fatalf("quantized-20 run stuck at relative error %v", res.RelErr)
	}
	coarse := runWithCodec(t, g, codec.NewQuantized(6), transport.Indirect)
	if coarse.RelErr > 5e-2 {
		t.Fatalf("quantized-6 run error %v beyond its expected floor", coarse.RelErr)
	}
	if coarse.RelErr < res.RelErr {
		t.Fatalf("coarser quantization gave a lower floor (%v < %v)", coarse.RelErr, res.RelErr)
	}
	// What a search engine cares about survives even 6-bit scores: the
	// ordering stays almost perfectly correlated with the exact ranks.
	if tau := kendallTau(coarse.Final, coarse.Reference); tau < 0.95 {
		t.Fatalf("quantized-6 ordering degraded: Kendall tau %v", tau)
	}
	if top := topKOverlap(coarse.Final, coarse.Reference, 100); top < 0.9 {
		t.Fatalf("quantized-6 top-100 overlap %v", top)
	}
}

// rankOrder returns page indices sorted by descending score, ties
// broken by ascending index so every score vector induces a strict
// total order.
func rankOrder(x vecmath.Vec) []int32 {
	idx := make([]int32, len(x))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		//p2plint:allow floateq -- sort tie-break: any strict total order works, exact inequality is deliberate
		if x[idx[a]] != x[idx[b]] {
			return x[idx[a]] > x[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// kendallTau returns the Kendall τ-a correlation of the orderings
// induced by a and b (equal length ≥ 2): 1 for identical orderings, −1
// for exactly reversed, ≈0 for unrelated. The discordant pairs are the
// inversions of b's positions listed in a's order, counted by merge
// sort in O(n log n).
func kendallTau(a, b vecmath.Vec) float64 {
	n := len(a)
	posB := make([]int32, n)
	for rank, p := range rankOrder(b) {
		posB[p] = int32(rank)
	}
	seq := make([]int32, n)
	for rank, p := range rankOrder(a) {
		seq[rank] = posB[p]
	}
	pairs := int64(n) * int64(n-1) / 2
	return 1 - 2*float64(countInversions(seq, make([]int32, n)))/float64(pairs)
}

// countInversions counts pairs i<j with s[i] > s[j] by merge sort,
// sorting s in place through buf (same length).
func countInversions(s, buf []int32) int64 {
	n := len(s)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := countInversions(s[:mid], buf[:mid]) + countInversions(s[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if s[i] <= s[j] {
			buf[k] = s[i]
			i++
		} else {
			buf[k] = s[j]
			j++
			inv += int64(mid - i)
		}
		k++
	}
	copy(buf[k:], s[i:mid])
	copy(buf[k+mid-i:], s[j:])
	copy(s, buf[:n])
	return inv
}

// topKOverlap returns the fraction of a's k highest-ranked pages that
// also rank in b's top k.
func topKOverlap(a, b vecmath.Vec, k int) float64 {
	inB := make(map[int32]bool, k)
	for _, p := range rankOrder(b)[:k] {
		inB[p] = true
	}
	hit := 0
	for _, p := range rankOrder(a)[:k] {
		if inB[p] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

func TestKendallIdentical(t *testing.T) {
	a := vecmath.Vec{3, 1, 2, 5}
	if tau := kendallTau(a, a.Clone()); tau != 1 {
		t.Fatalf("tau = %v, want 1", tau)
	}
}

func TestKendallReversed(t *testing.T) {
	a := vecmath.Vec{1, 2, 3, 4, 5}
	b := vecmath.Vec{5, 4, 3, 2, 1}
	if tau := kendallTau(a, b); tau != -1 {
		t.Fatalf("tau = %v, want -1", tau)
	}
}

func TestCountInversionsAgainstBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := r.Intn(50)
		seq := make([]int32, n)
		for i := range seq {
			seq[i] = int32(r.Intn(20))
		}
		var brute int64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if seq[i] > seq[j] {
					brute++
				}
			}
		}
		return countInversions(seq, make([]int32, n)) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCodecWithDirectTransport(t *testing.T) {
	g := codecGraph(t)
	res := runWithCodec(t, g, codec.Delta{}, transport.Direct)
	if res.RelErr > 1e-6 {
		t.Fatalf("direct+delta run error %v", res.RelErr)
	}
}

func TestSetCodecOrdering(t *testing.T) {
	sim := simnet.New(1)
	net, err := simnet.NewNetwork(sim, simnet.DefaultNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := []nodeid.ID{nodeid.Hash("a"), nodeid.Hash("b")}
	ov, err := pastry.New(ids, pastry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewFabric(net, ov, transport.Direct, transport.DefaultSizeModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.SetCodec(codec.Delta{}); err != nil {
		t.Fatalf("pre-traffic SetCodec failed: %v", err)
	}
	if fab.Codec() == nil {
		t.Fatal("codec not installed")
	}
	for i := 0; i < 2; i++ {
		i := i
		if err := fab.Register(i, func(transport.ScoreChunk) { _ = i }); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Send(0, transport.ScoreChunk{SrcGroup: 0, DstGroup: 1, Links: 1,
		Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 1}}}); err != nil {
		t.Fatal(err)
	}
	sim.Run(0)
	if err := fab.SetCodec(codec.Plain{}); err == nil {
		t.Fatal("SetCodec after traffic accepted")
	}
}
