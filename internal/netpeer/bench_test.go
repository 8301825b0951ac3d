package netpeer

import (
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/transport"
)

// BenchmarkPeerHandleFrame runs the live receive path on one frame at
// an indirect peer of a K = 16 ring: one chunk it delivers, fifteen it
// relays toward every other ranker (it knows no peer address, so no
// frame is written), and one addressed outside the ring. The relay step
// reuses its boxes and asks the overlay for each next hop, so the gate
// holds it at 0 allocs/op.
func BenchmarkPeerHandleFrame(b *testing.B) {
	const k = 16
	g := genGraph(b, 2000, 7)
	ov, err := pastry.New(nodeid.RankerIDs(k))
	if err != nil {
		b.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.ByPage, 1)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := dprcore.BuildGroups(g, assign, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	grp := groups[0]
	if len(grp.AffSrcs) == 0 {
		b.Fatal("group 0 has no afferent group; pick another seed")
	}
	p, err := Listen("127.0.0.1:0", Config{Params: dprcore.Params{Alg: dprcore.DPR2}, Group: grp, Overlay: ov})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	src := grp.AffSrcs[0]
	chunks := []transport.ScoreChunk{{SrcGroup: src, DstGroup: 0, Links: 1,
		Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 0.5}}}}
	for dst := 1; dst <= k; dst++ { // the last is outside the ring
		chunks = append(chunks, transport.ScoreChunk{SrcGroup: src, DstGroup: int32(dst), Links: 1})
	}
	rl := p.newRelay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks[0].Round = int64(i + 1) // newer than the last delivery
		p.handleFrame(rl, frame{Chunks: chunks})
	}
	b.StopTimer()
	if p.ChunksRelayed() != int64(b.N*(k-1)) || p.ChunksRejected() != int64(b.N) {
		b.Fatalf("relayed %d and rejected %d over %d frames", p.ChunksRelayed(), p.ChunksRejected(), b.N)
	}
}
