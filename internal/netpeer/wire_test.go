package netpeer

import (
	"net"
	"testing"

	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/transport"
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
	for _, w := range []transport.ChunkCodec{codec.Plain{}, codec.Delta{}} {
		client, server := pipeConn(t)
		fw := newFrameWriter(w, client)
		fr := newFrameReader(w, server)
		in := sampleFrame()
		if err := fw.writeFrame(in); err != nil {
			t.Fatal(err)
		}
		out, err := fr.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Chunks) != 2 {
			t.Fatalf("%T: %d chunks", w, len(out.Chunks))
		}
		if out.Chunks[0].SrcGroup != 1 || out.Chunks[0].Entries[1].Value != 1.25 {
			t.Fatalf("%T: chunk mangled: %+v", w, out.Chunks[0])
		}
		if out.Chunks[1].Round != 9 || len(out.Chunks[1].Entries) != 0 {
			t.Fatalf("%T: empty-entry chunk mangled: %+v", w, out.Chunks[1])
		}
	}
}

func TestWireMultipleFrames(t *testing.T) {
	client, server := pipeConn(t)
	fw := newFrameWriter(codec.Delta{}, client)
	fr := newFrameReader(codec.Delta{}, server)
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
	fr := newFrameReader(codec.Plain{}, server)
	// A frame advertising 2^40 chunks must be rejected, not allocated.
	if _, err := client.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.readFrame(); err == nil {
		t.Fatal("implausible chunk count accepted")
	}
	// And an implausible chunk size.
	client2, server2 := pipeConn(t)
	fr2 := newFrameReader(codec.Plain{}, server2)
	if _, err := client2.Write([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}); err != nil {
		t.Fatal(err)
	}
	if _, err := fr2.readFrame(); err == nil {
		t.Fatal("implausible chunk size accepted")
	}
}

func TestWireTruncation(t *testing.T) {
	client, server := pipeConn(t)
	fr := newFrameReader(codec.Delta{}, server)
	// Valid count, then a cut-off body and a closed connection.
	if _, err := client.Write([]byte{0x01, 0x20, 0x01}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := fr.readFrame(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestPeerConfigValidation(t *testing.T) {
	g := genGraph(t, 300, 61)
	cl, err := StartCluster(g, ClusterConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	grp := cl.Peers[0].cfg.Group
	bad := []Config{
		{Group: grp, Params: dprcore.Params{Alg: dprcore.Algorithm(9)}},
		{Group: grp, Params: dprcore.Params{Alpha: 2}},
		{Group: grp, Params: dprcore.Params{Alpha: -1}},
		{Group: grp, Params: dprcore.Params{InnerEpsilon: -1}},
		{Group: grp, Params: dprcore.Params{SendProb: -0.5}},
		{Group: grp, Params: dprcore.Params{SendProb: 1.5}},
		{Group: grp, MeanWait: -1},
		{Group: grp, Params: dprcore.Params{T1: 5, T2: 1}},
		{Group: grp, Params: dprcore.Params{Fault: dprcore.FaultConfig{DropProb: 2}}},
	}
	for i, cfg := range bad {
		if _, err := Listen("127.0.0.1:0", cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
