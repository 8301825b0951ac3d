// Package codec implements the live peers' wire encoding for score
// chunks. Plain stores one (page, score) pair as a 4-byte dense local
// index and an 8-byte float — far below the paper's 100-byte URL-pair
// records (§4.4–4.5), because DHT placement lets peers agree on dense
// local page indices instead of shipping URLs. The simulator prices
// messages with transport.SizeModel (the paper's l and r), not with
// these bytes. Compression, which the paper leaves as future work, is
// not implemented.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"p2prank/internal/transport"
)

// Plain stores a chunk as a varint header — srcGroup, dstGroup, round,
// links, entry count — followed by each entry as a 4-byte little-endian
// index and an 8-byte IEEE-754 score.
type Plain struct{}

// Encode appends c's encoding to dst.
func (Plain) Encode(dst []byte, c transport.ScoreChunk) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.SrcGroup))
	dst = binary.AppendUvarint(dst, uint64(c.DstGroup))
	dst = binary.AppendUvarint(dst, uint64(c.Round))
	dst = binary.AppendUvarint(dst, uint64(c.Links))
	dst = binary.AppendUvarint(dst, uint64(len(c.Entries)))
	for _, e := range c.Entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.DstLocal))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	}
	return dst
}

// Decode parses one encoded chunk. Groups and the entry count are
// capped, and the body must hold exactly the entries the header counts.
func (Plain) Decode(src []byte) (transport.ScoreChunk, error) {
	var c transport.ScoreChunk
	fields := [5]uint64{}
	pos := 0
	for i := range fields {
		v, adv := binary.Uvarint(src[pos:])
		if adv <= 0 {
			return c, fmt.Errorf("codec: truncated header field %d", i)
		}
		fields[i] = v
		pos += adv
	}
	const maxReasonable = 1 << 31
	if fields[0] > maxReasonable || fields[1] > maxReasonable || fields[4] > maxReasonable {
		return c, fmt.Errorf("codec: implausible header %v", fields)
	}
	c.SrcGroup = int32(fields[0])
	c.DstGroup = int32(fields[1])
	c.Round = int64(fields[2])
	c.Links = int64(fields[3])
	n := int(fields[4])
	if len(src)-pos != n*12 {
		return c, fmt.Errorf("codec: plain body has %d bytes, want %d", len(src)-pos, n*12)
	}
	c.Entries = make([]transport.ScoreEntry, n)
	for i := 0; i < n; i++ {
		c.Entries[i] = transport.ScoreEntry{
			DstLocal: int32(binary.LittleEndian.Uint32(src[pos:])),
			Value:    math.Float64frombits(binary.LittleEndian.Uint64(src[pos+4:])),
		}
		pos += 12
	}
	return c, nil
}
