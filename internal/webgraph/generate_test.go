package webgraph

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(2000)
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumPages() != g2.NumPages() || g1.NumInternalLinks() != g2.NumInternalLinks() {
		t.Fatalf("same seed, different graphs: %d/%d pages, %d/%d links",
			g1.NumPages(), g2.NumPages(), g1.NumInternalLinks(), g2.NumInternalLinks())
	}
	for i := range g1.outDst {
		if g1.outDst[i] != g2.outDst[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestGenerateSeedMatters(t *testing.T) {
	cfg := DefaultGenConfig(2000)
	g1, _ := Generate(cfg)
	cfg.Seed = 99
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumInternalLinks() == g2.NumInternalLinks() {
		// Same count is possible but edge content should differ.
		same := true
		for i := range g1.outDst {
			if g1.outDst[i] != g2.outDst[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGenerateValid(t *testing.T) {
	g, err := Generate(DefaultGenConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
}

// The generator must hit the paper's calibration targets: ~90% of
// internal links intra-site, ~8/15 of all links external, mean total
// out-degree ~15.
func TestGenerateCalibration(t *testing.T) {
	cfg := DefaultGenConfig(20000)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if math.Abs(s.IntraSiteFrac()-cfg.IntraSiteFrac) > 0.03 {
		t.Errorf("intra-site fraction = %.3f, want ~%.2f", s.IntraSiteFrac(), cfg.IntraSiteFrac)
	}
	if math.Abs(s.ExternalFrac()-cfg.ExternalFrac) > 0.03 {
		t.Errorf("external fraction = %.3f, want ~%.3f", s.ExternalFrac(), cfg.ExternalFrac)
	}
	if math.Abs(s.MeanOutDegree-cfg.MeanOutDegree)/cfg.MeanOutDegree > 0.15 {
		t.Errorf("mean out-degree = %.2f, want ~%.1f", s.MeanOutDegree, cfg.MeanOutDegree)
	}
}

func TestGenerateSiteSkew(t *testing.T) {
	cfg := DefaultGenConfig(30000)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, g.NumSites())
	for _, s := range g.siteOf {
		counts[s]++
	}
	// Every site must be non-empty and site 0 (rank-1 in the Zipf) must
	// be clearly larger than a mid-rank site.
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("site %d is empty", i)
		}
	}
	mid := g.NumSites() / 2
	if counts[0] <= counts[mid] {
		t.Errorf("no site-size skew: site0=%d site%d=%d", counts[0], mid, counts[mid])
	}
}

func TestGenerateNoSelfLinks(t *testing.T) {
	g, err := Generate(DefaultGenConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.NumPages(); p++ {
		for _, v := range g.InternalOut(int32(p)) {
			if v == int32(p) {
				t.Fatalf("self-link on page %d", p)
			}
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{Pages: 0, Sites: 1},
		{Pages: 10, Sites: 0},
		{Pages: 10, Sites: 20},
		{Pages: 10, Sites: 2, MeanOutDegree: -1},
		{Pages: 10, Sites: 2, ExternalFrac: 1.5},
		{Pages: 10, Sites: 2, IntraSiteFrac: -0.1},
		{Pages: 10, Sites: 2, SiteSkew: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateSingleSite(t *testing.T) {
	cfg := DefaultGenConfig(200)
	cfg.Sites = 1
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSites() != 1 {
		t.Fatalf("sites = %d", g.NumSites())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultGenConfigScaling(t *testing.T) {
	if c := DefaultGenConfig(100); c.Sites != 4 {
		t.Errorf("tiny graph sites = %d, want 4", c.Sites)
	}
	if c := DefaultGenConfig(1000000); c.Sites != 100 {
		t.Errorf("1M-page graph sites = %d, want 100 (paper's dataset)", c.Sites)
	}
	// A crawl of fewer than 4 pages gets one site per page, not a site
	// count Generate refuses.
	for pages := 1; pages <= 3; pages++ {
		c := DefaultGenConfig(pages)
		if c.Sites != pages {
			t.Errorf("%d-page graph sites = %d, want %d", pages, c.Sites, pages)
		}
		if _, err := Generate(c); err != nil {
			t.Errorf("%d-page default crawl: %v", pages, err)
		}
	}
}

func BenchmarkGenerate10k(b *testing.B) {
	cfg := DefaultGenConfig(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDegreeSamplerZeroMean(t *testing.T) {
	cfg := DefaultGenConfig(100)
	cfg.MeanOutDegree = 0
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumInternalLinks() != 0 || g.NumExternalLinks() != 0 {
		t.Fatalf("zero-degree graph has links: %d/%d",
			g.NumInternalLinks(), g.NumExternalLinks())
	}
}

// The generator's draws are pinned: xrand's Zipf sampler was split into
// a shared table and a per-stream sampler, and these are the
// fingerprints from before the split.
func TestGenerateFingerprintsPinned(t *testing.T) {
	for _, c := range []struct {
		pages int
		seed  uint64
		want  uint64
	}{
		{2000, 1, 0xe837c5e697e5b56c},
		{5000, 7, 0xe58798132a634e8e},
	} {
		cfg := DefaultGenConfig(c.pages)
		cfg.Seed = c.seed
		g, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Fingerprint(); got != c.want {
			t.Errorf("%d pages seed %d: fingerprint %#x, want %#x", c.pages, c.seed, got, c.want)
		}
	}
}
