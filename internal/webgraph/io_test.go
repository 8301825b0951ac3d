package webgraph

import (
	"bytes"
	"strings"
	"testing"
)

// graphsEqual holds b to a through every accessor, on every site and
// page.
func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumPages() != b.NumPages() || a.NumSites() != b.NumSites() ||
		a.NumInternalLinks() != b.NumInternalLinks() ||
		a.NumExternalLinks() != b.NumExternalLinks() {
		t.Fatalf("shape mismatch: %d/%d pages, %d/%d sites, %d/%d links",
			a.NumPages(), b.NumPages(), a.NumSites(), b.NumSites(),
			a.NumInternalLinks(), b.NumInternalLinks())
	}
	for i := 0; i < a.NumSites(); i++ {
		if a.SiteHost(int32(i)) != b.SiteHost(int32(i)) {
			t.Fatalf("site %d: %q != %q", i, a.SiteHost(int32(i)), b.SiteHost(int32(i)))
		}
	}
	for p := 0; p < a.NumPages(); p++ {
		u := int32(p)
		if a.SiteOf(u) != b.SiteOf(u) || a.LocalID(u) != b.LocalID(u) || a.ExtOut(u) != b.ExtOut(u) ||
			a.OutDegree(u) != b.OutDegree(u) || a.SiteName(u) != b.SiteName(u) || a.URL(u) != b.URL(u) {
			t.Fatalf("page %d metadata mismatch", p)
		}
		ao, bo := a.InternalOut(u), b.InternalOut(u)
		if len(ao) != len(bo) {
			t.Fatalf("page %d out-degree mismatch: %d != %d", p, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("page %d edge %d mismatch", p, i)
			}
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical graphs, different fingerprints: %#x != %#x", a.Fingerprint(), b.Fingerprint())
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestTextRoundTripGenerated(t *testing.T) {
	g, err := Generate(DefaultGenConfig(1500))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":  "frobnicate 1 2\n",
		"sparse site ids":    "site 5 a.edu\n",
		"bad page site":      "site 0 a.edu\npage 0 9\n",
		"link out of range":  "site 0 a.edu\npage 0 0\nlink 0 9\n",
		"negative ext":       "site 0 a.edu\npage 0 0\next 0 -1\n",
		"short site line":    "site 0\n",
		"non-numeric fields": "site 0 a.edu\npage x 0\n",
		// Ids and counts past int32 used to wrap: the first was read as
		// the link 0 -> 1, the second as one external link.
		"link id past int32":   "site 0 a.edu\npage 0 0\npage 1 0\nlink 4294967296 1\n",
		"ext count past int32": "site 0 a.edu\npage 0 0\npage 1 0\next 1 4294967297\n",
		"ext sum past int32":   "site 0 a.edu\npage 0 0\next 0 2147483647\next 0 1\n",
	}
	for name, input := range cases {
		if _, err := ReadText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\nsite 0 a.edu\npage 0 0\n  \nlink 0 0\n"
	g, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != 1 || g.NumInternalLinks() != 1 {
		t.Fatalf("parsed %d pages %d links", g.NumPages(), g.NumInternalLinks())
	}
}

func TestStatsString(t *testing.T) {
	s := ComputeStats(tinyGraph(t))
	out := s.String()
	for _, want := range []string{"pages=4", "internal=4", "external=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats %q missing %q", out, want)
		}
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	var b Builder
	g := b.Build()
	s := ComputeStats(g)
	if s.IntraSiteFrac() != 0 || s.ExternalFrac() != 0 || s.MeanOutDegree != 0 {
		t.Fatalf("empty graph stats: %+v", s)
	}
}
