package webgraph

import (
	"fmt"

	"p2prank/internal/xrand"
)

// GenConfig parameterizes the synthetic crawl generator. The defaults
// (see DefaultGenConfig) are calibrated to the statistics of the Google
// programming-contest dataset the paper evaluated on: ~1M pages over 100
// .edu sites with 15M links of which only 7M stay inside the dataset,
// and ~90% of internal links staying within their site.
type GenConfig struct {
	// Pages is the total number of pages to generate.
	Pages int
	// Sites is the number of sites; pages are spread over sites with a
	// Zipf distribution of exponent SiteSkew.
	Sites int
	// SiteSkew is the Zipf exponent for site sizes (0 = uniform).
	SiteSkew float64
	// MeanOutDegree is the mean total out-degree d(u), counting both
	// internal and external links. Degrees are Zipf-skewed so a few
	// hub pages link heavily, as in real crawls.
	MeanOutDegree float64
	// ExternalFrac is the fraction of links that point outside the
	// crawl (8/15 in the paper's dataset).
	ExternalFrac float64
	// ExternalSpread makes external-link probability heterogeneous
	// across sites: half the sites use ExternalFrac − Spread, half
	// ExternalFrac + Spread (clamped to [0,1], mean roughly
	// preserved). Real crawls have internal-heavy sites; because their
	// pages cite each other (90% of internal links are intra-site)
	// they form slowly-decaying cores that dominate centralized
	// PageRank's iteration count — and under by-site partitioning they
	// are exactly what DPR1's inner loop solves in one shot, the
	// effect behind Figure 8. 0 yields homogeneous sites.
	ExternalSpread float64
	// IntraSiteFrac is the fraction of internal links that stay within
	// the source page's site (≈0.9 per Cho & Garcia-Molina, which the
	// paper's §4.1 partitioning argument relies on).
	IntraSiteFrac float64
	// PageSkew is the Zipf exponent for choosing link destinations
	// within a site: popular pages attract more links.
	PageSkew float64
	// Seed makes generation reproducible.
	Seed uint64
}

// DefaultGenConfig returns the paper-calibrated configuration scaled to
// the requested number of pages. Sites scale as pages/10000 (the paper's
// dataset has 1M pages over 100 sites) but never fewer than 4, unless
// there are fewer pages than that: then each page is its own site.
func DefaultGenConfig(pages int) GenConfig {
	sites := pages / 10000
	if sites < 4 {
		sites = min(4, pages)
	}
	return GenConfig{
		Pages:          pages,
		Sites:          sites,
		SiteSkew:       0.8,
		MeanOutDegree:  15,
		ExternalFrac:   8.0 / 15.0,
		ExternalSpread: 0.4,
		IntraSiteFrac:  0.9,
		PageSkew:       0.7,
		Seed:           1,
	}
}

func (c GenConfig) validate() error {
	switch {
	case c.Pages <= 0:
		return fmt.Errorf("webgraph: Pages = %d, must be positive", c.Pages)
	case c.Sites <= 0:
		return fmt.Errorf("webgraph: Sites = %d, must be positive", c.Sites)
	case c.Sites > c.Pages:
		return fmt.Errorf("webgraph: more sites (%d) than pages (%d)", c.Sites, c.Pages)
	case c.MeanOutDegree < 0:
		return fmt.Errorf("webgraph: negative MeanOutDegree %v", c.MeanOutDegree)
	case c.ExternalFrac < 0 || c.ExternalFrac > 1:
		return fmt.Errorf("webgraph: ExternalFrac %v outside [0,1]", c.ExternalFrac)
	case c.ExternalSpread < 0 || c.ExternalSpread > 1:
		return fmt.Errorf("webgraph: ExternalSpread %v outside [0,1]", c.ExternalSpread)
	case c.IntraSiteFrac < 0 || c.IntraSiteFrac > 1:
		return fmt.Errorf("webgraph: IntraSiteFrac %v outside [0,1]", c.IntraSiteFrac)
	case c.SiteSkew < 0 || c.PageSkew < 0:
		return fmt.Errorf("webgraph: negative skew exponent")
	}
	return nil
}

// Generate builds a synthetic crawl per cfg. Generation is deterministic
// in cfg.Seed.
func Generate(cfg GenConfig) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)

	// 1. Spread pages over sites: every site gets at least one page,
	// the rest are assigned Zipf-skewed so site sizes are heavy-tailed.
	siteOfPage := make([]int32, cfg.Pages)
	sitePages := make([][]int32, cfg.Sites) // site -> page indices
	for s := 0; s < cfg.Sites; s++ {
		siteOfPage[s] = int32(s)
	}
	siteZipf := xrand.NewZipf(rng, cfg.Sites, cfg.SiteSkew)
	for p := cfg.Sites; p < cfg.Pages; p++ {
		siteOfPage[p] = int32(siteZipf.Sample())
	}
	var b Builder
	for s := 0; s < cfg.Sites; s++ {
		b.AddSite(fmt.Sprintf("site%03d.edu", s))
	}
	for p := 0; p < cfg.Pages; p++ {
		b.AddPage(siteOfPage[p])
	}
	for p := 0; p < cfg.Pages; p++ {
		s := siteOfPage[p]
		sitePages[s] = append(sitePages[s], int32(p))
	}

	// Per-site destination samplers, built lazily: sites can be large
	// and most are touched by every one of their pages anyway.
	siteSampler := make([]*xrand.Zipf, cfg.Sites)
	pickInSite := func(s int32) int32 {
		ps := sitePages[s]
		if len(ps) == 1 {
			return ps[0]
		}
		if siteSampler[s] == nil {
			siteSampler[s] = xrand.NewZipf(rng, len(ps), cfg.PageSkew)
		}
		return ps[siteSampler[s].Sample()]
	}

	// 2. Emit links. Out-degree per page is 1 + Zipf-ish tail with the
	// requested mean; destination is external with prob ExternalFrac,
	// otherwise intra-site with prob IntraSiteFrac, otherwise a page of
	// a random other site.
	// Per-site external-link probability: a two-point mixture around
	// ExternalFrac, assigned by alternating size rank and then shifted
	// so the page-weighted mean matches ExternalFrac (site sizes are
	// Zipf-skewed, so an uncorrected mixture would drift).
	siteExtProb := make([]float64, cfg.Sites)
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	for s := range siteExtProb {
		q := cfg.ExternalFrac
		if s%2 == 0 {
			q -= cfg.ExternalSpread
		} else {
			q += cfg.ExternalSpread
		}
		siteExtProb[s] = clamp01(q)
	}
	if cfg.ExternalSpread > 0 {
		weighted := 0.0
		for p := 0; p < cfg.Pages; p++ {
			weighted += siteExtProb[siteOfPage[p]]
		}
		shift := cfg.ExternalFrac - weighted/float64(cfg.Pages)
		for s := range siteExtProb {
			siteExtProb[s] = clamp01(siteExtProb[s] + shift)
		}
	}
	degSampler := newDegreeSampler(rng, cfg.MeanOutDegree)
	for p := 0; p < cfg.Pages; p++ {
		deg := degSampler.sample()
		src := int32(p)
		extProb := siteExtProb[siteOfPage[p]]
		for k := 0; k < deg; k++ {
			if rng.Float64() < extProb {
				if err := b.AddExternalLinks(src, 1); err != nil {
					return nil, err
				}
				continue
			}
			var dst int32
			if rng.Float64() < cfg.IntraSiteFrac || cfg.Sites == 1 {
				dst = pickInSite(siteOfPage[p])
			} else {
				// Choose a different site, Zipf-skewed.
				s := int32(siteZipf.Sample())
				if s == siteOfPage[p] {
					s = int32((int(s) + 1 + rng.Intn(cfg.Sites-1)) % cfg.Sites)
				}
				dst = pickInSite(s)
			}
			if dst == src {
				// Self-links carry no information in PageRank; count
				// them as external leakage instead of dropping the
				// degree.
				if err := b.AddExternalLinks(src, 1); err != nil {
					return nil, err
				}
				continue
			}
			if err := b.AddLink(src, dst); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// degreeSampler draws total out-degrees with a heavy-ish tail around a
// target mean: degree = 1 + Geometric-like tail. Using a mixture of a
// base degree and an exponential tail gives hubs without unbounded
// degrees.
type degreeSampler struct {
	rng  *xrand.Rand
	mean float64
}

func newDegreeSampler(rng *xrand.Rand, mean float64) *degreeSampler {
	return &degreeSampler{rng: rng, mean: mean}
}

func (d *degreeSampler) sample() int {
	if d.mean <= 0 {
		return 0
	}
	// 1 + Exp(mean-1) rounded: mean works out to ~mean, min degree 1.
	v := 1 + int(d.rng.Exp(d.mean-1)+0.5)
	const maxDeg = 10000
	if v > maxDeg {
		v = maxDeg
	}
	return v
}
