package transport_test

// Integration of wire codecs with the transport fabric and the engine.
// Lives in an external test package because internal/codec imports
// internal/transport.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
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

// codecPin is what TestCodecBytesLadder holds fixed per run: the wire
// counters, the event count, and the outcome by bits.
type codecPin struct {
	Bytes, Msgs, Relayed int64
	Events               uint64
	RelErr, Final        uint64 // RelErr's bits; FNV-64a of Final's bits
}

func pinOf(res *engine.Result) codecPin {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.Final {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return codecPin{
		Bytes: res.NetStats.BytesSent, Msgs: res.NetStats.MessagesSent,
		Relayed: res.TransportStats.RelayedChunks, Events: res.Events,
		RelErr: math.Float64bits(res.RelErr), Final: h.Sum64(),
	}
}

// TestCodecBytesLadder runs every codec under both transmission patterns
// at two ranker counts and pins each run exactly, so a change to how the
// fabric applies a codec must reproduce bytes, messages, events, relays
// and ranks bit for bit. Within each setting the encoded sizes must
// ladder: plain below the 100 B/link model, delta below plain,
// quantized below delta.
func TestCodecBytesLadder(t *testing.T) {
	g := codecGraph(t)
	// One pin per codec, in this order.
	codecs := []transport.ChunkCodec{nil, codec.Plain{}, codec.Delta{}, codec.NewQuantized(16), codec.NewQuantized(6)}
	for _, tc := range []struct {
		kind transport.Kind
		k    int
		pins []codecPin
	}{
		{transport.Direct, 8, []codecPin{
			{111878060, 8960, 0, 9628, 0x3d5fe60dc9df771c, 0x3c3a0e84ee0947b1},
			{6294682, 8960, 0, 9628, 0x3d5fe60dc9df771c, 0x3c3a0e84ee0947b1},
			{4852948, 8960, 0, 9628, 0x3d5fe60dc9df771c, 0x3c3a0e84ee0947b1},
			{2930636, 8960, 0, 9628, 0x3ea956c3fbc2bae9, 0x61922b583ac102c8},
			{2450058, 8960, 0, 9628, 0x3f4b3809fc2c163c, 0xbe1271195fc57db2},
		}},
		{transport.Direct, 64, []codecPin{
			{174273804, 634390, 0, 639714, 0x3de7a643cc1ffdf0, 0xaaf6f0f8df5be092},
			{52304396, 634390, 0, 639714, 0x3de7a643cc1ffdf0, 0xaaf6f0f8df5be092},
			{49264813, 634390, 0, 639714, 0x3de7a643cc1ffdf0, 0xaaf6f0f8df5be092},
			{45211925, 634390, 0, 639714, 0x3ea70e426f1ef93f, 0x8c7431ce4dad1624},
			{44198703, 634390, 0, 639714, 0x3f46c6f697d5d7e0, 0x7770f4ef566106fc},
		}},
		{transport.Indirect, 8, []codecPin{
			{111519660, 4480, 0, 5148, 0x3d6211490649a131, 0x00c2745d0e61ff16},
			{5936282, 4480, 0, 5148, 0x3d6211490649a131, 0x00c2745d0e61ff16},
			{4494548, 4480, 0, 5148, 0x3d6211490649a131, 0x00c2745d0e61ff16},
			{2572236, 4480, 0, 5148, 0x3ea956c3fbc2bae9, 0x61922b583ac102c8},
			{2091658, 4480, 0, 5148, 0x3f4b3809fc2c163c, 0xbe1271195fc57db2},
		}},
		{transport.Indirect, 64, []codecPin{
			{211250296, 257478, 140286, 262802, 0x3df1c8b353afc45a, 0x2d9e5c66f0dc6702},
			{28455458, 257478, 140286, 262802, 0x3df1c8b353afc45a, 0x2d9e5c66f0dc6702},
			{23892762, 257478, 140286, 262802, 0x3df1c8b353afc45a, 0x2d9e5c66f0dc6702},
			{17808946, 257478, 140286, 262802, 0x3ea70e426f1ef93f, 0x8c7431ce4dad1624},
			{16287992, 257478, 140286, 262802, 0x3f46c6f697d5d7e0, 0x7770f4ef566106fc},
		}},
	} {
		bytes := make([]int64, len(codecs))
		for i, c := range codecs {
			name := "nil"
			if c != nil {
				name = c.Name()
			}
			res, err := engine.Run(engine.Config{
				Params: dprcore.Params{Alg: dprcore.DPR1, T1: 0.5, T2: 3},
				Graph:  g, K: tc.k, MaxTime: 100, SampleEvery: 5,
				Strategy: partition.ByPage, Transport: tc.kind, Codec: c,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := pinOf(res)
			bytes[i] = got.Bytes
			if got != tc.pins[i] {
				t.Errorf("%s/K%d/%s:\n got %#v\nwant %#v", tc.kind, tc.k, name, got, tc.pins[i])
			}
		}
		for i, what := range []string{"plain vs model", "delta vs plain", "quantized-16 vs delta"} {
			if bytes[i+1] >= bytes[i] {
				t.Errorf("%s/K%d: %s: %d B not below %d B", tc.kind, tc.k, what, bytes[i+1], bytes[i])
			}
		}
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
	ov, err := pastry.New(ids)
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
