package webgraph

import (
	"bytes"
	"testing"
)

// FuzzOpenGraph throws arbitrary bytes at the binary reader. The
// contract: an error or a graph, never a panic and never an allocation
// proportional to a lying header; a graph that passes Validate is safe
// through every accessor on every page, hashes to the fingerprint its
// header claims, and writes back to a file that opens to the same graph.
func FuzzOpenGraph(f *testing.F) {
	var empty Builder
	valid := mappedBytes(f, pinnedGraph(f))
	f.Add(valid)
	f.Add(valid[:20])
	f.Add(valid[:80])
	f.Add([]byte(binaryMagic))
	f.Add([]byte("not a graph at all"))
	f.Add(mappedBytes(f, empty.Build()))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := MappedFromBytes(data)
		if err != nil {
			return
		}
		defer g.Close()
		if g.Validate() != nil {
			return
		}
		if got := FingerprintOf(g); got != g.Fingerprint() {
			t.Fatalf("validated graph hashes to %#x, header says %#x", got, g.Fingerprint())
		}
		back, err := MappedFromBytes(mappedBytes(t, g))
		if err != nil {
			t.Fatalf("rewritten file does not open: %v", err)
		}
		graphsEqual(t, g, back) // every accessor, every page
	})
}

// FuzzReadText throws arbitrary bytes at the text reader: never a
// panic, and an accepted graph validates and survives a round trip
// through the writer.
func FuzzReadText(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteText(&buf, pinnedGraph(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# only a comment\n\n"))
	f.Add([]byte("site 0 a.edu\npage 0 0\nlink 0 0\next 0 2147483647\next 0 1\n"))
	f.Add([]byte("site 0 a.edu\npage 0 0\npage 1 0\nlink 4294967296 1\n"))
	f.Add([]byte("page 0 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadText returned an invalid graph: %v", err)
		}
		var out bytes.Buffer
		if err := WriteText(&out, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&out)
		if err != nil {
			t.Fatalf("written text does not parse: %v", err)
		}
		graphsEqual(t, g, back)
	})
}
