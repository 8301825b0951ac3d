package webgraph

import (
	"fmt"
	"strings"
	"testing"
)

// tinyGraph builds the 4-page group of the paper's Figure 2:
// P1 -> P2, P1 -> P4, P2 -> P3, P3 -> P4, plus one external link on P4.
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	var b Builder
	s := b.AddSite("example.edu")
	p1 := b.AddPage(s)
	p2 := b.AddPage(s)
	p3 := b.AddPage(s)
	p4 := b.AddPage(s)
	for _, l := range [][2]int32{{p1, p2}, {p1, p4}, {p2, p3}, {p3, p4}} {
		if err := b.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddExternalLinks(p4, 1); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestBuilderCounts(t *testing.T) {
	g := tinyGraph(t)
	if g.NumPages() != 4 || g.NumSites() != 1 {
		t.Fatalf("pages=%d sites=%d", g.NumPages(), g.NumSites())
	}
	if g.NumInternalLinks() != 4 {
		t.Fatalf("internal links = %d", g.NumInternalLinks())
	}
	if g.NumExternalLinks() != 1 {
		t.Fatalf("external links = %d", g.NumExternalLinks())
	}
}

func TestOutDegreeCountsExternal(t *testing.T) {
	g := tinyGraph(t)
	// P1 has 2 internal links; P4 has 0 internal + 1 external.
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("d(P1) = %d, want 2", d)
	}
	if d := g.OutDegree(3); d != 1 {
		t.Errorf("d(P4) = %d, want 1", d)
	}
}

func TestInternalOut(t *testing.T) {
	g := tinyGraph(t)
	out := g.InternalOut(0)
	if len(out) != 2 {
		t.Fatalf("P1 internal out = %v", out)
	}
	seen := map[int32]bool{}
	for _, v := range out {
		seen[v] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("P1 links = %v, want {1,3}", out)
	}
}

func TestAddSiteIdempotent(t *testing.T) {
	var b Builder
	a := b.AddSite("x.edu")
	c := b.AddSite("x.edu")
	if a != c {
		t.Fatalf("duplicate site got different ids %d, %d", a, c)
	}
	if d := b.AddSite("y.edu"); d == a {
		t.Fatalf("distinct site got same id")
	}
}

func TestURLStableAndDistinct(t *testing.T) {
	g := tinyGraph(t)
	urls := map[string]bool{}
	for p := 0; p < g.NumPages(); p++ {
		u := g.URL(int32(p))
		if !strings.HasPrefix(u, "http://example.edu/") {
			t.Fatalf("URL %q missing site prefix", u)
		}
		if urls[u] {
			t.Fatalf("duplicate URL %q", u)
		}
		urls[u] = true
	}
}

// The URL spelling is what pages hash by (partition placement, the
// text model's per-page seed): it may not drift.
func TestAppendURLSpelling(t *testing.T) {
	cfg := DefaultGenConfig(500)
	cfg.Seed = 2
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("x")
	for p := int32(0); p < int32(g.NumPages()); p++ {
		want := fmt.Sprintf("http://%s/p%d.html", g.SiteName(p), g.LocalID(p))
		if got := g.URL(p); got != want {
			t.Fatalf("page %d: URL %q, want %q", p, got, want)
		}
		buf = AppendURL(buf[:1], g, p)
		if string(buf) != "x"+want {
			t.Fatalf("page %d: AppendURL gives %q, want %q", p, buf, "x"+want)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	var b Builder
	s := b.AddSite("a.edu")
	b.AddPage(s)
	if err := b.AddLink(0, 5); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := b.AddLink(-1, 0); err == nil {
		t.Error("negative src accepted")
	}
	if err := b.AddExternalLinks(7, 1); err == nil {
		t.Error("external links on missing page accepted")
	}
	if err := b.AddExternalLinks(0, -2); err == nil {
		t.Error("negative external count accepted")
	}
}

func TestAddPagePanicsOnBadSite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddPage(99) did not panic")
		}
	}()
	var b Builder
	b.AddPage(99)
}

func TestBuildTwicePanics(t *testing.T) {
	var b Builder
	b.AddSite("a.edu")
	b.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("second Build did not panic")
		}
	}()
	b.Build()
}

func TestValidateAcceptsBuilt(t *testing.T) {
	if err := tinyGraph(t).Validate(); err != nil {
		t.Fatalf("built graph invalid: %v", err)
	}
}

func TestValidateRejectsCorrupt(t *testing.T) {
	base := func() *Graph {
		g := tinyGraph(t)
		return g
	}
	g := base()
	g.outDst[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("edge to missing page accepted")
	}
	g = base()
	g.siteOf[0] = 7
	if err := g.Validate(); err == nil {
		t.Error("invalid site accepted")
	}
	g = base()
	g.outPtr[1], g.outPtr[2] = g.outPtr[2], g.outPtr[1]
	if err := g.Validate(); err == nil {
		t.Error("non-monotone OutPtr accepted")
	}
	g = base()
	g.extOut = g.extOut[:2]
	if err := g.Validate(); err == nil {
		t.Error("short ExtOut accepted")
	}
}

func TestBuilderNumPages(t *testing.T) {
	var b Builder
	s := b.AddSite("a.edu")
	if b.NumPages() != 0 {
		t.Fatal("fresh builder has pages")
	}
	b.AddPage(s)
	b.AddPage(s)
	if b.NumPages() != 2 {
		t.Fatalf("NumPages = %d", b.NumPages())
	}
}
