package netpeer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"net"
	"reflect"
	"testing"
	"time"

	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/partition"
	"p2prank/internal/transport"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// pipeConn builds a connected TCP pair on localhost.
func pipeConn(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-done
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func sampleFrame() frame {
	return frame{Chunks: []transport.ScoreChunk{
		{
			SrcGroup: 1, DstGroup: 2, Round: 7, Links: 3,
			Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 0.5}, {DstLocal: 4, Value: 1.25}},
		},
		{SrcGroup: 3, DstGroup: 2, Round: 9, Links: 1},
	}}
}

func TestWireRoundTrip(t *testing.T) {
	client, server := pipeConn(t)
	fw := newFrameWriter(client)
	fr := newFrameReader(server)
	if err := fw.writeFrame(sampleFrame()); err != nil {
		t.Fatal(err)
	}
	out, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Chunks) != 2 {
		t.Fatalf("%d chunks", len(out.Chunks))
	}
	if out.Chunks[0].SrcGroup != 1 || out.Chunks[0].Entries[1].Value != 1.25 {
		t.Fatalf("chunk mangled: %+v", out.Chunks[0])
	}
	if out.Chunks[1].Round != 9 || len(out.Chunks[1].Entries) != 0 {
		t.Fatalf("empty-entry chunk mangled: %+v", out.Chunks[1])
	}
}

// TestFrameBytesPinned pins the wire format: one frame with two chunks,
// the second empty, and two acks, as the writer frames it, byte for
// byte. The reader must decode the bytes back to the frame.
func TestFrameBytesPinned(t *testing.T) {
	const want = "021d010207030200000000000000000000e03f04000000000000000000f43f" +
		"050302090100" + "020207ac028080808020"
	in := frame{
		Chunks: []transport.ScoreChunk{
			{
				SrcGroup: 1, DstGroup: 2, Round: 7, Links: 3,
				Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 0.5}, {DstLocal: 4, Value: 1.25}},
			},
			{SrcGroup: 3, DstGroup: 2, Round: 9, Links: 1, Entries: []transport.ScoreEntry{}},
		},
		Acks: []transport.Ack{{From: 2, Round: 7}, {From: 300, Round: 1 << 33}},
	}
	var buf bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&buf)}
	if err := fw.writeFrame(in); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, want)
	}
	fr := &frameReader{r: bufio.NewReader(&buf)}
	out, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	if n := fr.r.Buffered() + buf.Len(); n != 0 {
		t.Fatalf("%d bytes left unread", n)
	}
}

func TestWireMultipleFrames(t *testing.T) {
	client, server := pipeConn(t)
	fw := newFrameWriter(client)
	fr := newFrameReader(server)
	for i := 0; i < 5; i++ {
		if err := fw.writeFrame(sampleFrame()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(f.Chunks) != 2 {
			t.Fatalf("frame %d has %d chunks", i, len(f.Chunks))
		}
	}
}

func TestWireRejectsHugeFrames(t *testing.T) {
	client, server := pipeConn(t)
	fr := newFrameReader(server)
	// A frame advertising 2^40 chunks must be rejected, not allocated.
	if _, err := client.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.readFrame(); err == nil {
		t.Fatal("implausible chunk count accepted")
	}
	// And an implausible chunk size.
	client2, server2 := pipeConn(t)
	fr2 := newFrameReader(server2)
	if _, err := client2.Write([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}); err != nil {
		t.Fatal(err)
	}
	if _, err := fr2.readFrame(); err == nil {
		t.Fatal("implausible chunk size accepted")
	}
}

func TestWireTruncation(t *testing.T) {
	client, server := pipeConn(t)
	fr := newFrameReader(server)
	// Valid count, then a cut-off body and a closed connection.
	if _, err := client.Write([]byte{0x01, 0x20, 0x01}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := fr.readFrame(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// Listen deploys as StartCluster does and refuses what it refuses, in
// its words; it also refuses an index outside the ring and a churn
// schedule, which only a Cluster runs.
func TestPeerConfigValidation(t *testing.T) {
	g := genGraph(t, 300, 61)
	churn := []dprcore.ChurnEvent{{Ranker: 1, CrashAt: 1, RestartAt: 2}}
	for _, c := range []struct {
		g   *webgraph.Graph
		cfg ClusterConfig
		i   int
		// want is the lone peer's own refusal; empty, StartCluster's.
		want string
	}{
		{g, ClusterConfig{K: 2}, -1, "netpeer: index -1 outside [0, 2)"},
		{g, ClusterConfig{K: 2}, 2, "netpeer: index 2 outside [0, 2)"},
		{g, ClusterConfig{K: 2, Churn: churn}, 0, "netpeer: Churn needs a Cluster; a lone peer schedules no outages"},
		{nil, ClusterConfig{K: 2}, 0, ""},
		{g, ClusterConfig{K: 0}, 0, ""},
		{g, ClusterConfig{K: 2, MeanWait: -1}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{Alg: dprcore.Algorithm(9)}}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{Alpha: 2}}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{Alpha: -1}}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{SendProb: -0.5}}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{SendProb: 1.5}}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{T1: 5, T2: 1}}, 0, ""},
		{g, ClusterConfig{K: 2, Params: dprcore.Params{Fault: dprcore.FaultConfig{DropProb: 2}}}, 0, ""},
	} {
		want := c.want
		if want == "" {
			cl, err := StartCluster(c.g, c.cfg)
			if err == nil {
				cl.Close()
				t.Fatalf("StartCluster accepted %+v", c.cfg)
			}
			want = err.Error()
		}
		p, err := Listen("127.0.0.1:0", c.g, c.cfg, c.i)
		if err == nil {
			p.Close()
			t.Errorf("Listen(%+v, %d) accepted", c.cfg, c.i)
		} else if err.Error() != want {
			t.Errorf("Listen(%+v, %d) = %q, want %q", c.cfg, c.i, err, want)
		}
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Anyone can dial a peer. Well-framed chunks its loop could not have
// been sent — an entry addressing page N or page -1, a source group
// that does not exist — are dropped and counted, and the peer keeps
// ranking. (Stored unchecked, the first two index past the X vector on
// the next loop and take the process down.) So is a chunk for another
// group: a direct-mode peer relays nothing.
func TestPeerSurvivesHostileChunks(t *testing.T) {
	g := genGraph(t, 500, 11)
	cl, err := StartCluster(g, ClusterConfig{K: 3, MeanWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Peers[1]
	grp := p.grp
	if len(grp.AffSrcs) == 0 {
		t.Fatal("peer 1 has no afferent group; pick another seed")
	}
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hostile := func(src, dstLocal int32) transport.ScoreChunk {
		return transport.ScoreChunk{
			SrcGroup: src, DstGroup: int32(grp.Index), Links: 1,
			Round:   1 << 40, // newer than anything the cluster sends
			Entries: []transport.ScoreEntry{{DstLocal: dstLocal, Value: 1}},
		}
	}
	misaddressed := hostile(grp.AffSrcs[0], 0)
	misaddressed.DstGroup = int32(grp.Index+1) % 3
	if err := newFrameWriter(conn).writeFrame(frame{Chunks: []transport.ScoreChunk{
		hostile(grp.AffSrcs[0], int32(grp.N())),
		hostile(grp.AffSrcs[0], -1),
		hostile(1<<20, 0),
		misaddressed,
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the four chunks to be rejected", func() bool { return p.ChunksRejected() == 4 })
	loops := p.Loops()
	waitFor(t, "the peer to keep ranking", func() bool { return p.Loops() >= loops+3 })
}

// An indirect-mode peer relays chunks addressed to other rankers. One
// addressed to a group outside the ring has no route: it is dropped and
// counted, and the peer keeps ranking. (Routed unchecked, its group
// indexes past the overlay's node table and takes the process down.)
func TestPeerSurvivesHostileRelay(t *testing.T) {
	g := genGraph(t, 500, 11)
	cl, err := StartCluster(g, ClusterConfig{K: 3, MeanWait: 5 * time.Millisecond, Indirect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Peers[1]
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two Plain chunks from group 0: one to group 2²⁰, and one whose
	// header carries group 2³¹ — the largest the codec admits, which
	// decodes as math.MinInt32. Encode cannot write the second (it
	// sign-extends a negative group), so both are framed by hand.
	far := codec.Plain{}.Encode(nil, transport.ScoreChunk{DstGroup: 1 << 20, Round: 1, Links: 1})
	negative := binary.AppendUvarint([]byte{0}, 1<<31)
	negative = append(negative, 1, 1, 0) // round, links, no entries
	wire := []byte{2}
	for _, c := range [][]byte{far, negative} {
		wire = append(binary.AppendUvarint(wire, uint64(len(c))), c...)
	}
	if _, err := conn.Write(append(wire, 0)); err != nil { // no acks
		t.Fatal(err)
	}
	waitFor(t, "the two chunks to be rejected", func() bool { return p.ChunksRejected() == 2 })
	loops := p.Loops()
	waitFor(t, "the peer to keep ranking", func() bool { return p.Loops() >= loops+3 })
	if p.ChunksRelayed() != 0 {
		t.Fatalf("relayed %d chunks addressed outside the ring", p.ChunksRelayed())
	}
}

// An ack names the group that sent it, off the wire. A reliable peer
// given one from group 2³¹ — math.MinInt32 once decoded — ignores it
// and keeps ranking. (Indexed unchecked, it took the read goroutine,
// and so the process, down.)
func TestPeerSurvivesHostileAck(t *testing.T) {
	g := genGraph(t, 500, 11)
	cl, err := StartCluster(g, ClusterConfig{K: 3, MeanWait: 5 * time.Millisecond,
		Params: dprcore.Params{Reliable: dprcore.ReliableConfig{Timeout: float64(50 * time.Millisecond)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Peers[1]
	waitFor(t, "the peer to send a chunk", func() bool { return p.ChunksSent() > 0 })
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// No chunks; one ack from group 2³¹, round 5.
	if _, err := conn.Write([]byte{0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x08, 0x05}); err != nil {
		t.Fatal(err)
	}
	loops := p.Loops()
	waitFor(t, "the peer to keep ranking", func() bool { return p.Loops() >= loops+3 })
}

// FuzzReadFrame feeds arbitrary bytes through the whole receive path of
// a reliable peer — frame reader, codec, the reliable layer's acks,
// handleFrame's relay step (delivery, relay and acks), one compute
// phase over whatever was accepted — which must never panic. The peer
// knows no other peer's address, so nothing it relays or acks leaves
// it. The first byte picks the transmission mode (byte mod 2:
// indirect, direct); the rest is the stream.
func FuzzReadFrame(f *testing.F) {
	// Two by-page groups, each linking to the other, as StartCluster
	// would cut them; the peers are ranker 0 of each.
	g := genGraph(f, 300, 61)
	// No retransmission timer fires within a fuzz pass.
	params := dprcore.Params{Alg: dprcore.DPR2, Alpha: 0.85, SendProb: 1,
		Reliable: dprcore.ReliableConfig{Timeout: float64(time.Hour)}}
	var peers [2]*Peer
	var relays [2]*transport.Relay
	for mode, indirect := range []bool{true, false} {
		p, err := Listen("127.0.0.1:0", g, ClusterConfig{Params: params, K: 2, Strategy: partition.ByPage,
			Indirect: indirect}, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { p.Close() })
		peers[mode], relays[mode] = p, p.newRelay()
	}
	grp := peers[0].grp
	// A chunk the peer delivers, one it relays toward group 1 (indirect
	// mode) or rejects (direct), one addressed outside the ring, and an
	// ack for the round the peer committed.
	valid := func(mode byte) []byte {
		seed := bytes.NewBuffer([]byte{mode})
		fw := &frameWriter{w: bufio.NewWriter(seed)}
		if err := fw.writeFrame(frame{
			Chunks: []transport.ScoreChunk{{
				SrcGroup: 1, DstGroup: 0, Round: 3, Links: 2,
				Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 0.5}, {DstLocal: int32(grp.N() - 1), Value: 0.25}},
			}, {SrcGroup: 0, DstGroup: 1, Round: 3, Links: 1}, {SrcGroup: 1, DstGroup: 5, Round: 3, Links: 1}},
			Acks: []transport.Ack{{From: 1, Round: 2}},
		}); err != nil {
			f.Fatal(err)
		}
		return seed.Bytes()
	}
	// One 8-byte chunk whose header claims 2²⁴ entries, then no acks.
	hostile := binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<24)
	for _, mode := range []byte{0, 1} {
		f.Add(valid(mode))
		f.Add(valid(mode)[:20])               // cut off inside the first chunk
		f.Add([]byte{mode, 0x80, 0x80, 0x40}) // a megachunk frame, three bytes long
		f.Add(append(append([]byte{mode, 1, byte(len(hostile))}, hostile...), 0))
		// The ack that once killed a reliable peer: no chunks, one ack
		// from group 2³¹, round 5.
		f.Add([]byte{mode, 0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x08, 0x05})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := int(data[0]) % 2
		p := peers[mode]
		loop, err := dprcore.NewLoop(grp, params, 1, p.stack.Sender, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		p.loop = loop // a fresh loop per input; the peer is never started
		// One committed round leaves a chunk pending at the reliable
		// layer, so an ack has a slot to land on.
		loop.ComputePhase()
		loop.CommitPhase()
		p.out.drain()
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(data[1:]))}
		for {
			fm, err := fr.readFrame()
			if err != nil {
				break
			}
			p.handleFrame(relays[mode], fm)
		}
		loop.ComputePhase()
	})
}
