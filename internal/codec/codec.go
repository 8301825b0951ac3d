// Package codec implements wire encodings for score chunks — the
// "compression" the paper's §4.5 leaves as future work ("Some
// techniques can be adopted to reduce convergence time, i.e.
// compression"). Three codecs ladder from the paper's accounting model
// to an aggressive delta-quantized format:
//
//   - Plain: the naive record encoding, one (page, score) pair as a
//     4-byte index + 8-byte float. Already far below the paper's
//     100-byte URL-pair records, because DHT placement lets peers agree
//     on dense local page indices instead of shipping URLs.
//   - Delta: destination indices are sorted, so gaps are small —
//     delta + varint encoding shrinks the index stream.
//   - Quantized: scores additionally quantized to a fixed number of
//     mantissa bits; lossy, with a relative error bounded by 2^-bits,
//     which the open-system iteration tolerates (it contracts any
//     perturbation by α per step).
//
// Encoded sizes plug into transport.SizeModel so the bandwidth
// experiments can quantify what compression buys against Table 1.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"p2prank/internal/transport"
)

// header layout shared by all codecs:
// varint srcGroup | varint dstGroup | varint round | varint links |
// varint numEntries | entry stream (codec-specific).
func encodeHeader(dst []byte, c transport.ScoreChunk) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.SrcGroup))
	dst = binary.AppendUvarint(dst, uint64(c.DstGroup))
	dst = binary.AppendUvarint(dst, uint64(c.Round))
	dst = binary.AppendUvarint(dst, uint64(c.Links))
	dst = binary.AppendUvarint(dst, uint64(len(c.Entries)))
	return dst
}

func decodeHeader(src []byte) (c transport.ScoreChunk, n int, entries int, err error) {
	fields := [5]uint64{}
	pos := 0
	for i := range fields {
		v, adv := binary.Uvarint(src[pos:])
		if adv <= 0 {
			return c, 0, 0, fmt.Errorf("codec: truncated header field %d", i)
		}
		fields[i] = v
		pos += adv
	}
	const maxReasonable = 1 << 31
	if fields[0] > maxReasonable || fields[1] > maxReasonable || fields[4] > maxReasonable {
		return c, 0, 0, fmt.Errorf("codec: implausible header %v", fields)
	}
	c.SrcGroup = int32(fields[0])
	c.DstGroup = int32(fields[1])
	c.Round = int64(fields[2])
	c.Links = int64(fields[3])
	return c, pos, int(fields[4]), nil
}

// Plain stores each entry as a 4-byte little-endian index and an
// 8-byte IEEE-754 score.
type Plain struct{}

// Name implements transport.ChunkCodec.
func (Plain) Name() string { return "plain" }

// Encode implements transport.ChunkCodec.
func (Plain) Encode(dst []byte, c transport.ScoreChunk) []byte {
	dst = encodeHeader(dst, c)
	for _, e := range c.Entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.DstLocal))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	}
	return dst
}

// Decode implements transport.ChunkCodec.
func (Plain) Decode(src []byte) (transport.ScoreChunk, error) {
	c, pos, n, err := decodeHeader(src)
	if err != nil {
		return c, err
	}
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

// Delta encodes sorted destination indices as varint gaps and scores as
// raw float64 — lossless, typically 2–3× smaller than Plain on the
// index stream.
type Delta struct{}

// Name implements transport.ChunkCodec.
func (Delta) Name() string { return "delta" }

// Encode implements transport.ChunkCodec. Entries must be sorted by
// DstLocal (the ranker emits them that way); Encode panics otherwise
// since silently producing an undecodable gap stream would corrupt ranks
// downstream.
func (Delta) Encode(dst []byte, c transport.ScoreChunk) []byte {
	dst = encodeHeader(dst, c)
	prev := int32(0)
	for i, e := range c.Entries {
		if e.DstLocal < prev {
			panic(fmt.Sprintf("codec: Delta requires sorted entries (%d after %d)", e.DstLocal, prev))
		}
		gap := uint64(e.DstLocal - prev)
		if i == 0 {
			gap = uint64(e.DstLocal)
		}
		dst = binary.AppendUvarint(dst, gap)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
		prev = e.DstLocal
	}
	return dst
}

// Decode implements transport.ChunkCodec.
func (Delta) Decode(src []byte) (transport.ScoreChunk, error) {
	c, pos, n, err := decodeHeader(src)
	if err != nil {
		return c, err
	}
	// An entry is at least a one-byte gap and an 8-byte score: check the
	// claimed count against the body before sizing a slice by it.
	if n > (len(src)-pos)/9 {
		return c, fmt.Errorf("codec: delta header claims %d entries for a %d-byte body", n, len(src)-pos)
	}
	c.Entries = make([]transport.ScoreEntry, 0, n)
	prev := int32(0)
	for i := 0; i < n; i++ {
		gap, adv := binary.Uvarint(src[pos:])
		if adv <= 0 {
			return c, fmt.Errorf("codec: truncated delta gap %d", i)
		}
		pos += adv
		if pos+8 > len(src) {
			return c, fmt.Errorf("codec: truncated delta score %d", i)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
		pos += 8
		idx := prev + int32(gap)
		c.Entries = append(c.Entries, transport.ScoreEntry{DstLocal: idx, Value: v})
		prev = idx
	}
	if pos != len(src) {
		return c, fmt.Errorf("codec: %d trailing bytes", len(src)-pos)
	}
	return c, nil
}

// Quantized is Delta with scores rounded to MantissaBits mantissa bits
// and packed as varint(exponent-biased)<<bits|mantissa. Relative error
// per score is below 2^-MantissaBits.
type Quantized struct {
	// MantissaBits is the retained mantissa width, in [4, 52].
	MantissaBits uint
}

// NewQuantized returns a Quantized codec, clamping bits into [4, 52].
func NewQuantized(bits uint) Quantized {
	if bits < 4 {
		bits = 4
	}
	if bits > 52 {
		bits = 52
	}
	return Quantized{MantissaBits: bits}
}

// Name implements transport.ChunkCodec.
func (q Quantized) Name() string { return fmt.Sprintf("quantized-%d", q.MantissaBits) }

// quantize rounds v to the codec's mantissa width. Zero, negatives (not
// produced by the ranker, but tolerated), infinities, and NaN pass
// through a raw-bits fallback.
func (q Quantized) quantize(v float64) uint64 {
	bits := math.Float64bits(v)
	drop := 52 - q.MantissaBits
	// Round to nearest by adding half a ULP of the retained width.
	// Overflow into the exponent is fine: it rounds up to the next
	// power of two, still a valid float.
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		bits += 1 << (drop - 1)
	}
	return bits >> drop
}

func (q Quantized) dequantize(u uint64) float64 {
	return math.Float64frombits(u << (52 - q.MantissaBits))
}

// Encode implements transport.ChunkCodec. Entries must be sorted by
// DstLocal, as for Delta.
func (q Quantized) Encode(dst []byte, c transport.ScoreChunk) []byte {
	dst = encodeHeader(dst, c)
	prev := int32(0)
	for i, e := range c.Entries {
		if e.DstLocal < prev {
			panic(fmt.Sprintf("codec: Quantized requires sorted entries (%d after %d)", e.DstLocal, prev))
		}
		gap := uint64(e.DstLocal - prev)
		if i == 0 {
			gap = uint64(e.DstLocal)
		}
		dst = binary.AppendUvarint(dst, gap)
		dst = binary.AppendUvarint(dst, q.quantize(e.Value))
		prev = e.DstLocal
	}
	return dst
}

// Decode implements transport.ChunkCodec.
func (q Quantized) Decode(src []byte) (transport.ScoreChunk, error) {
	c, pos, n, err := decodeHeader(src)
	if err != nil {
		return c, err
	}
	// An entry is at least a one-byte gap and a one-byte score: check the
	// claimed count against the body before sizing a slice by it.
	if n > (len(src)-pos)/2 {
		return c, fmt.Errorf("codec: quantized header claims %d entries for a %d-byte body", n, len(src)-pos)
	}
	c.Entries = make([]transport.ScoreEntry, 0, n)
	prev := int32(0)
	for i := 0; i < n; i++ {
		gap, adv := binary.Uvarint(src[pos:])
		if adv <= 0 {
			return c, fmt.Errorf("codec: truncated quantized gap %d", i)
		}
		pos += adv
		u, adv := binary.Uvarint(src[pos:])
		if adv <= 0 {
			return c, fmt.Errorf("codec: truncated quantized score %d", i)
		}
		pos += adv
		idx := prev + int32(gap)
		c.Entries = append(c.Entries, transport.ScoreEntry{DstLocal: idx, Value: q.dequantize(u)})
		prev = idx
	}
	if pos != len(src) {
		return c, fmt.Errorf("codec: %d trailing bytes", len(src)-pos)
	}
	return c, nil
}
