package netpeer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"p2prank/internal/codec"
	"p2prank/internal/transport"
)

// The wire format is one frame per write: a uvarint chunk count, then
// per chunk a uvarint byte length followed by its codec.Plain encoding;
// then a uvarint ack count followed by per-ack uvarint group and round
// (a transport.Ack's From and Round; the reliable layer's section —
// zero-count when reliability is off). Every length a peer advertises
// is capped before anything is allocated for it.

// frameWriter writes frames to one connection. It is not
// goroutine-safe; peerConn serializes its callers.
type frameWriter struct {
	w   *bufio.Writer
	buf []byte
	hdr [binary.MaxVarintLen64]byte
}

func newFrameWriter(c net.Conn) *frameWriter {
	return &frameWriter{w: bufio.NewWriter(c)}
}

func (w *frameWriter) writeFrame(f frame) error {
	n := binary.PutUvarint(w.hdr[:], uint64(len(f.Chunks)))
	if _, err := w.w.Write(w.hdr[:n]); err != nil {
		return err
	}
	for _, c := range f.Chunks {
		w.buf = codec.Plain{}.Encode(w.buf[:0], c)
		n := binary.PutUvarint(w.hdr[:], uint64(len(w.buf)))
		if _, err := w.w.Write(w.hdr[:n]); err != nil {
			return err
		}
		if _, err := w.w.Write(w.buf); err != nil {
			return err
		}
	}
	n = binary.PutUvarint(w.hdr[:], uint64(len(f.Acks)))
	if _, err := w.w.Write(w.hdr[:n]); err != nil {
		return err
	}
	for _, a := range f.Acks {
		n := binary.PutUvarint(w.hdr[:], uint64(uint32(a.From)))
		if _, err := w.w.Write(w.hdr[:n]); err != nil {
			return err
		}
		n = binary.PutUvarint(w.hdr[:], uint64(a.Round))
		if _, err := w.w.Write(w.hdr[:n]); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// frameReader reads frames from one connection.
type frameReader struct {
	r *bufio.Reader
}

func newFrameReader(c net.Conn) *frameReader {
	return &frameReader{r: bufio.NewReader(c)}
}

// maxFrameChunks, maxChunkBytes, and maxFrameAcks bound what a reader
// will allocate for one frame; a peer advertising more is broken or
// hostile.
const (
	maxFrameChunks = 1 << 20
	maxChunkBytes  = 1 << 26
	maxFrameAcks   = 1 << 20
)

func (r *frameReader) readFrame() (frame, error) {
	count, err := binary.ReadUvarint(r.r)
	if err != nil {
		return frame{}, err
	}
	if count > maxFrameChunks {
		return frame{}, fmt.Errorf("netpeer: frame advertises %d chunks", count)
	}
	// The count is only advertised: reserve for a plausible frame and let
	// append follow what actually arrives.
	f := frame{Chunks: make([]transport.ScoreChunk, 0, min(count, 1024))}
	for i := uint64(0); i < count; i++ {
		size, err := binary.ReadUvarint(r.r)
		if err != nil {
			return frame{}, err
		}
		if size > maxChunkBytes {
			return frame{}, fmt.Errorf("netpeer: chunk advertises %d bytes", size)
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(r.r, buf); err != nil {
			return frame{}, err
		}
		c, err := codec.Plain{}.Decode(buf)
		if err != nil {
			return frame{}, fmt.Errorf("netpeer: decoding chunk %d: %w", i, err)
		}
		f.Chunks = append(f.Chunks, c)
	}
	nacks, err := binary.ReadUvarint(r.r)
	if err != nil {
		return frame{}, err
	}
	if nacks > maxFrameAcks {
		return frame{}, fmt.Errorf("netpeer: frame advertises %d acks", nacks)
	}
	for i := uint64(0); i < nacks; i++ {
		from, err := binary.ReadUvarint(r.r)
		if err != nil {
			return frame{}, err
		}
		round, err := binary.ReadUvarint(r.r)
		if err != nil {
			return frame{}, err
		}
		f.Acks = append(f.Acks, transport.Ack{From: int32(uint32(from)), Round: int64(round)})
	}
	return f, nil
}
