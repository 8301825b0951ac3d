package codec

import (
	"encoding/binary"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"p2prank/internal/transport"
	"p2prank/internal/xrand"
)

func randomChunk(r *xrand.Rand) transport.ScoreChunk {
	n := r.Intn(60)
	c := transport.ScoreChunk{
		SrcGroup: int32(r.Intn(1000)),
		DstGroup: int32(r.Intn(1000)),
		Round:    int64(r.Intn(100000)),
		Links:    int64(r.Intn(5000)),
	}
	idx := make(map[int32]bool)
	for len(idx) < n {
		idx[int32(r.Intn(100000))] = true
	}
	for i := range idx {
		c.Entries = append(c.Entries, transport.ScoreEntry{
			DstLocal: i,
			Value:    r.Float64() * 10,
		})
	}
	sort.Slice(c.Entries, func(a, b int) bool { return c.Entries[a].DstLocal < c.Entries[b].DstLocal })
	return c
}

func TestLosslessRoundTrip(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		f := func(seed uint64) bool {
			r := xrand.New(seed)
			in := randomChunk(r)
			out, err := Plain{}.Decode(Plain{}.Encode(nil, in))
			if err != nil {
				return false
			}
			if out.SrcGroup != in.SrcGroup || out.DstGroup != in.DstGroup ||
				out.Round != in.Round || out.Links != in.Links ||
				len(out.Entries) != len(in.Entries) {
				return false
			}
			for i := range in.Entries {
				if out.Entries[i] != in.Entries[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

// TestReencodeIsIdentity checks what lets a relaying peer stand for the
// sender: re-encoding a decoded chunk reproduces its wire bytes, so the
// destination reads what the source wrote however many hops it took.
func TestReencodeIsIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		enc := Plain{}.Encode(nil, randomChunk(xrand.New(seed)))
		out, err := Plain{}.Decode(enc)
		return err == nil && string(Plain{}.Encode(nil, out)) == string(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	enc := Plain{}.Encode(nil, randomChunk(xrand.New(1)))
	// Truncations at every prefix must error, never panic: the header
	// fixes the entry count, so no true prefix has the body it claims.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := (Plain{}).Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := (Plain{}).Decode(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := (Plain{}).Decode(nil); err == nil {
		t.Error("nil input accepted")
	}
}

// hostileHeader is a header with every field zero except an entry count
// of n, and no body.
func hostileHeader(n uint64) []byte {
	return binary.AppendUvarint([]byte{0, 0, 0, 0}, n)
}

// TestDecodeBoundsEntryCount feeds the decoder a few header bytes that
// claim millions of entries: it must fail without sizing a slice by the
// claim.
func TestDecodeBoundsEntryCount(t *testing.T) {
	for _, n := range []uint64{1 << 24, 1<<31 - 1} {
		src := hostileHeader(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Plain{}.Decode(src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%d-byte chunk claiming %d entries accepted", len(src), n)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("header claiming %d entries allocated %d bytes", n, d)
		}
	}
}

func TestEmptyChunk(t *testing.T) {
	c := transport.ScoreChunk{SrcGroup: 3, DstGroup: 4, Round: 1, Links: 0}
	out, err := Plain{}.Decode(Plain{}.Encode(nil, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 0 || out.SrcGroup != 3 {
		t.Fatalf("empty chunk mangled: %+v", out)
	}
}
