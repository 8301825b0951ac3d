package workload

import (
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// What --seed draws. A rank workload (sim_*, live_tcp) draws its crawl
// from it — the links; the sizes of the sites and their mix of
// internal and external links are laws of the generator, not draws —
// and runs it on one fixed asynchronous schedule and partition hash,
// scheduleSeed. The other way round, the cost of a run follows the
// seed: with a few dozen busy rankers, which of them the large sites
// hash to and how many loops their exponential waits let them make
// move sim_paper's work by ±8–12 % from seed to seed, where another
// crawl of the same shape moves it by ±3 %. A serve workload keeps one
// crawl, servedCrawlSeed, and draws its traffic from the seed: the
// query plan, the partition hash and the fault lattice.
const (
	scheduleSeed    = 1
	servedCrawlSeed = 1
)

// crawl generates a workload's synthetic crawl: the repository's
// default link model (8/15 external links, 90 % intra-site) at the
// given size over the given number of sites.
func crawl(pages, sites int, seed uint64) (*webgraph.Graph, error) {
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Sites = sites
	cfg.Seed = seed
	return webgraph.Generate(cfg)
}

// Plan is a pre-drawn query workload: n conjunctive queries of 1–3
// distinct terms, k = 10, term ids skewed quartically toward the low
// end of the vocabulary (id = ⌊u⁴·V⌋) so a small set of popular
// queries repeats and the response cache has something to hit.
type Plan struct {
	Reqs []search.Request
}

// NewPlan draws n queries over a vocabulary of vocab terms from seed.
func NewPlan(seed uint64, n, vocab int) *Plan {
	rng := xrand.New(seed ^ 0x5e12e)
	p := &Plan{Reqs: make([]search.Request, n)}
	terms := make([]int32, 0, 3*n) // one backing array for every query's terms
	for i := range p.Reqs {
		want := 1 + rng.Intn(3)
		start := len(terms)
		for len(terms)-start < want {
			u := rng.Float64()
			u *= u
			t := int32(u * u * float64(vocab))
			dup := false
			for _, prev := range terms[start:] {
				dup = dup || prev == t
			}
			if !dup {
				terms = append(terms, t)
			}
		}
		p.Reqs[i] = search.Request{Terms: terms[start:len(terms):len(terms)], K: 10}
	}
	return p
}
