package webgraph

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// mappedBytes serializes g in the version-2 format.
func mappedBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMappedRoundTripHandWritten(t *testing.T) {
	g := tinyGraph(t)
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, m)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMappedRoundTripGenerated(t *testing.T) {
	g, err := Generate(DefaultGenConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteMappedFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	graphsEqual(t, g, m)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := FingerprintOf(m); got != g.Fingerprint() {
		t.Fatalf("recomputed fingerprint %#x, heap graph says %#x", got, g.Fingerprint())
	}
}

func TestMappedEmptyGraph(t *testing.T) {
	var b Builder
	g := b.Build()
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, m)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Both serializations of one graph — text and version-2 binary, two
// unrelated parsers — must decode to the same structure and
// fingerprint.
func TestFormatsAgree(t *testing.T) {
	for _, pages := range []int{37, 1500} {
		g, err := Generate(DefaultGenConfig(pages))
		if err != nil {
			t.Fatal(err)
		}
		var tb bytes.Buffer
		if err := WriteText(&tb, g); err != nil {
			t.Fatal(err)
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			t.Fatal(err)
		}
		fromV2, err := MappedFromBytes(mappedBytes(t, g))
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, g, fromText)
		graphsEqual(t, g, fromV2)
	}
}

func TestMaterializeCopiesMapped(t *testing.T) {
	g, err := Generate(DefaultGenConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	cp := Materialize(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The copy must survive the source store's Close.
	graphsEqual(t, g, cp)
	if Materialize(g) != g {
		t.Fatal("Materialize of an in-memory graph should be identity")
	}
}

// TestMappedCorruptInputs table-tests the parser's error paths: every
// mutation of a valid file must produce an error at open (header and
// table damage) or at Validate (payload damage), never a panic or a
// silently wrong graph.
func TestMappedCorruptInputs(t *testing.T) {
	g := tinyGraph(t)
	valid := mappedBytes(t, g)
	descs, _ := mappedLayout(g)
	outPtrOff := int(descs[5].off)
	outDstOff := int(descs[6].off)
	siteOffOff := int(descs[0].off)

	openFails := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:40] }},
		{"truncated mid-table", func(b []byte) []byte { return b[:100] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version 1", func(b []byte) []byte { b[8] = 1; return b }},
		{"version 99", func(b []byte) []byte { b[8] = 99; return b }},
		{"implausible pages", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
			return b
		}},
		{"wrong section count", func(b []byte) []byte { b[56] = 3; return b }},
		{"section kind out of order", func(b []byte) []byte { b[64] = 5; return b }},
		{"wrong element size", func(b []byte) []byte { b[64+4] = 2; return b }},
		{"section offset unaligned", func(b []byte) []byte { b[64+8]++; return b }},
		{"section count disagrees with header", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[64+16:], 99)
			return b
		}},
		{"section beyond file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[64+6*24+8:], 1<<30)
			return b
		}},
		{"site offsets corrupt", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[siteOffOff+4:], 1<<20)
			return b
		}},
		{"outptr endpoint mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[outPtrOff+4*8:], 99) // last OutPtr entry
			return b
		}},
	}
	for _, tc := range openFails {
		data := tc.mutate(append([]byte(nil), valid...))
		if m, err := MappedFromBytes(data); err == nil {
			m.Close()
			t.Errorf("%s: accepted at open", tc.name)
		}
	}

	// Payload damage parses (open is O(1) and never reads it) but must
	// fail Validate.
	validateFails := []struct {
		name   string
		mutate func([]byte)
	}{
		{"edge out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[outDstOff:], 1<<20) }},
		{"edge rewired", func(b []byte) { b[outDstOff] ^= 1 }}, // still in range: fingerprint catches it
		{"external count tampered", func(b []byte) {
			binary.LittleEndian.PutUint32(b[int(descs[4].off)+3*4:], 7)
		}},
	}
	for _, tc := range validateFails {
		data := append([]byte(nil), valid...)
		tc.mutate(data)
		m, err := MappedFromBytes(data)
		if err != nil {
			continue // even better: caught at open
		}
		if err := m.Validate(); err == nil {
			t.Errorf("%s: passed Validate", tc.name)
		}
		m.Close()
	}
}

func TestMappedLayoutSizes(t *testing.T) {
	g := tinyGraph(t) // 1 site ("example.edu" = 11 bytes), 4 pages, 4 links
	infos, total := MappedLayout(g)
	want := map[string]int64{
		"site-offsets": 8,  // u32 × 2
		"site-names":   11, // len("example.edu")
		"site-of":      16, // i32 × 4
		"local-id":     16,
		"ext-out":      16,
		"out-ptr":      40, // i64 × 5
		"out-dst":      16,
	}
	for _, info := range infos {
		if info.Bytes != want[info.Name] {
			t.Errorf("section %s = %d bytes, want %d", info.Name, info.Bytes, want[info.Name])
		}
	}
	if int64(len(mappedBytes(t, g))) != total {
		t.Errorf("MappedLayout total %d, written file is %d bytes", total, len(mappedBytes(t, g)))
	}
}

// BenchmarkGraphLoadMapped vs BenchmarkGraphLoadText is the storage
// tentpole's measured claim: opening the version-2 format is O(1) in
// the graph size (map, parse the 232-byte header and section table,
// decode site names), while the text format pays a full parse. Both
// load the same 10⁴-page graph.
func BenchmarkGraphLoadMapped(b *testing.B) {
	g, err := Generate(DefaultGenConfig(10000))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "g.bin")
	if err := WriteMappedFile(path, g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if m.NumPages() != g.NumPages() {
			b.Fatal("wrong page count")
		}
		m.Close()
	}
}

func BenchmarkGraphLoadText(b *testing.B) {
	g, err := Generate(DefaultGenConfig(10000))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg, err := ReadText(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if rg.NumPages() != g.NumPages() {
			b.Fatal("wrong page count")
		}
	}
}

func TestMappedHeaderCaches(t *testing.T) {
	g, err := Generate(DefaultGenConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NumExternalLinks() != g.NumExternalLinks() {
		t.Errorf("cached external links %d, want %d", m.NumExternalLinks(), g.NumExternalLinks())
	}
	if m.Fingerprint() != g.Fingerprint() {
		t.Errorf("cached fingerprint %#x, want %#x", m.Fingerprint(), g.Fingerprint())
	}
}

// pinnedGraph is a small hand-built graph with everything the format
// has to carry: two sites whose names do not pad to 8 bytes, a parallel
// link, a self link, an overridden local id, external links.
func pinnedGraph(t testing.TB) *Graph {
	t.Helper()
	var b Builder
	s0 := b.AddSite("a.example")
	s1 := b.AddSite("bb.example.org")
	p0, p1, p2, p3, p4 := b.AddPage(s0), b.AddPage(s1), b.AddPage(s0), b.AddPage(s1), b.AddPage(s1)
	for _, l := range [][2]int32{{p0, p1}, {p0, p4}, {p1, p2}, {p3, p0}, {p3, p3}, {p4, p2}, {p0, p1}} {
		if err := b.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetLocalID(p4, 40); err != nil {
		t.Fatal(err)
	}
	if err := b.AddExternalLinks(p2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddExternalLinks(p4, 1); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// TestMappedBytesPinned pins the bytes WriteMapped produces. The
// values were taken at the commit before the writer was rewritten to
// emit the arrays directly, so a file written on either side of that
// change opens on the other.
func TestMappedBytesPinned(t *testing.T) {
	g := pinnedGraph(t)
	if got, want := g.Fingerprint(), uint64(0x9cd862703fa8d8c3); got != want {
		t.Fatalf("fingerprint %#x, want %#x", got, want)
	}
	data := mappedBytes(t, g)
	h := fnv.New64a()
	h.Write(data)
	if got, want := h.Sum64(), uint64(0x096859c720d1dea6); len(data) != 424 || got != want {
		t.Fatalf("WriteMapped output: %d bytes hashing to %#x, want 424 bytes hashing to %#x", len(data), got, want)
	}
}

// TestBackingsAgree is the contract of the one graph type: whether the
// arrays were built on the heap, alias a mapped file, or were decoded
// from a misaligned byte slice, every accessor answers the same on
// every page and the graph serialises to the same bytes.
func TestBackingsAgree(t *testing.T) {
	gen, err := Generate(DefaultGenConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	var empty Builder
	for _, tc := range []struct {
		name string
		heap *Graph
	}{
		{"hand-built", pinnedGraph(t)},
		{"generated", gen},
		{"empty", empty.Build()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap := tc.heap
			file := mappedBytes(t, heap)
			path := filepath.Join(t.TempDir(), "g.bin")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			// One byte off an 8-aligned base, no section can be aliased:
			// this graph is aliasI32/aliasI64's decode copy.
			shifted := make([]byte, len(file)+8)
			shifted = shifted[(8-uintptr(unsafe.Pointer(&shifted[0]))%8)%8+1:][:len(file)]
			copy(shifted, file)
			decoded, err := MappedFromBytes(shifted)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*Graph{mapped, decoded} {
				graphsEqual(t, heap, g)
				if got, want := ComputeStats(g), ComputeStats(heap); got != want {
					t.Fatalf("stats %+v, heap graph says %+v", got, want)
				}
				if got := FingerprintOf(g); got != heap.Fingerprint() || got != FingerprintOf(heap) {
					t.Fatalf("recomputed fingerprint %#x, heap graph says %#x", got, heap.Fingerprint())
				}
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mappedBytes(t, g), file) {
					t.Fatal("WriteMapped of a file-backed graph does not reproduce the file")
				}
			}

			// A heap copy outlives the mapping it was made from.
			cp := Materialize(mapped)
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
			if err := mapped.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			graphsEqual(t, heap, cp)
			if err := cp.Validate(); err != nil {
				t.Fatal(err)
			}
			// A heap graph has nothing to release: Materialize is the
			// identity on it, Close does nothing and it stays usable.
			if Materialize(heap) != heap {
				t.Fatal("Materialize copied a heap graph")
			}
			if err := heap.Close(); err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, cp, heap)
		})
	}
}

func TestOpenTextFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.txt")
	content := "site 0 a.edu\npage 0 0\npage 1 0\nlink 0 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumPages() != 2 || g.NumInternalLinks() != 1 {
		t.Fatalf("parsed %d pages %d links", g.NumPages(), g.NumInternalLinks())
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("/nonexistent/file"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	for name, tc := range map[string]struct{ content, want string }{
		"empty":      {"", "empty"},
		"bare magic": {binaryMagic, "truncated"},
		// The retired streamed format: same magic, version 1.
		"version 1": {binaryMagic + "\x01\x00\x00\x00\x00\x00\x00\x00" + strings.Repeat("\x00", 24), "version 1"},
		"bad text":  {"site 0 a.edu\nfrobnicate 1 2\n", "line 2"},
	} {
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// A damaged payload parses — OpenMapped is O(1) and trusts its caller —
// but Open, the path for files a user hands in, must return Validate's
// error. Both patches used to panic deep inside a run: the first as an
// index out of range in partition.Cut, the second as slice bounds out
// of range in InternalOut.
func TestOpenRejectsCorruptPayload(t *testing.T) {
	g, err := Generate(DefaultGenConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	valid := mappedBytes(t, g)
	descs, _ := mappedLayout(g)
	for name, patch := range map[string]func(b []byte){
		"out-dst entry": func(b []byte) { binary.LittleEndian.PutUint32(b[descs[secOutDst].off+40:], 1999999) },
		"out-ptr entry": func(b []byte) { binary.LittleEndian.PutUint64(b[descs[secOutPtr].off+8*1000:], 1<<40) },
	} {
		data := append([]byte(nil), valid...)
		patch(data)
		path := filepath.Join(t.TempDir(), "bad.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := Open(path); err == nil {
			g.Close()
			t.Errorf("%s: Open accepted the file", name)
		} else if !strings.HasPrefix(err.Error(), path+": webgraph: ") {
			t.Errorf("%s: error %q does not name the file and the package", name, err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Errorf("%s: OpenMapped read the payload: %v", name, err)
			continue
		}
		if err := m.Validate(); err == nil {
			t.Errorf("%s: passed Validate", name)
		}
		m.Close()
	}
}

func TestWriteMappedFileErrors(t *testing.T) {
	if err := WriteMappedFile("/nonexistent-dir/x.bin", tinyGraph(t)); err == nil {
		t.Error("write into a missing directory accepted")
	}
}
