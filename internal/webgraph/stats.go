package webgraph

import (
	"fmt"
	"strings"
)

// Stats summarizes the structural statistics that drive the paper's
// arguments: link locality (§4.1 partitioning), external leakage
// (Figure 7's ≈0.3 average rank), and degree shape.
type Stats struct {
	Pages         int
	Sites         int
	InternalLinks int64
	ExternalLinks int64
	// IntraSiteLinks counts internal links whose endpoints share a site.
	IntraSiteLinks int64
	// Dangling counts pages with no out-links at all (d(u) == 0).
	Dangling      int
	MaxOutDegree  int
	MeanOutDegree float64
}

// IntraSiteFrac returns the fraction of internal links that stay within
// one site, or 0 when there are no internal links.
func (s Stats) IntraSiteFrac() float64 {
	if s.InternalLinks == 0 {
		return 0
	}
	return float64(s.IntraSiteLinks) / float64(s.InternalLinks)
}

// ExternalFrac returns the fraction of all links that leave the crawl,
// or 0 when there are no links.
func (s Stats) ExternalFrac() float64 {
	total := s.InternalLinks + s.ExternalLinks
	if total == 0 {
		return 0
	}
	return float64(s.ExternalLinks) / float64(total)
}

// String renders the stats as a small human-readable report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pages=%d sites=%d\n", s.Pages, s.Sites)
	fmt.Fprintf(&b, "links: internal=%d external=%d (external frac %.3f)\n",
		s.InternalLinks, s.ExternalLinks, s.ExternalFrac())
	fmt.Fprintf(&b, "intra-site internal links: %d (%.3f of internal)\n",
		s.IntraSiteLinks, s.IntraSiteFrac())
	fmt.Fprintf(&b, "out-degree: mean=%.2f max=%d dangling=%d\n",
		s.MeanOutDegree, s.MaxOutDegree, s.Dangling)
	return b.String()
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Pages:         g.NumPages(),
		Sites:         g.NumSites(),
		InternalLinks: g.NumInternalLinks(),
		ExternalLinks: g.NumExternalLinks(),
	}
	var degSum int64
	for p := 0; p < g.NumPages(); p++ {
		u := int32(p)
		d := g.OutDegree(u)
		degSum += int64(d)
		if d == 0 {
			s.Dangling++
		}
		if d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		su := g.SiteOf(u)
		for _, v := range g.InternalOut(u) {
			if g.SiteOf(v) == su {
				s.IntraSiteLinks++
			}
		}
	}
	if s.Pages > 0 {
		s.MeanOutDegree = float64(degSum) / float64(s.Pages)
	}
	return s
}
