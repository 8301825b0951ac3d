package pagerank

import (
	"testing"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// webCrawl is the crawl the repo benchmark's sim_paper workload ranks:
// 40k pages over 40 Zipf-sized sites, in-degrees spread over two
// decades — the row-length regime uniformly random matrices lack.
func webCrawl(b *testing.B) *webgraph.Graph {
	b.Helper()
	cfg := webgraph.DefaultGenConfig(40000)
	cfg.Sites = 40
	g, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkStepDeltaWeb is the reference solve's inner loop: one Jacobi
// step with afferent rank over the whole crawl's transition matrix.
func BenchmarkStepDeltaWeb(b *testing.B) {
	g := webCrawl(b)
	a, err := BuildTransition(g, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumPages()
	x, e, xa, dst := vecmath.Const(n, 1), vecmath.Const(n, 0.15), vecmath.Const(n, 0.1), vecmath.NewVec(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.StepDelta(dst, x, e, xa)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.NNZ()), "ns/nnz")
}

// BenchmarkNewGroupSystem builds the group system of the crawl's
// largest site (6–7k pages) from its inner links, as BuildGroups does
// for every ranker.
func BenchmarkNewGroupSystem(b *testing.B) {
	g := webCrawl(b)
	size := make([]int, g.NumSites())
	for p := int32(0); int(p) < g.NumPages(); p++ {
		size[g.SiteOf(p)]++
	}
	site := int32(0)
	for s := range size {
		if size[s] > size[site] {
			site = int32(s)
		}
	}
	var pages []int32
	for p := int32(0); int(p) < g.NumPages(); p++ {
		if g.SiteOf(p) == site {
			pages = append(pages, p)
		}
	}
	local := make(map[int32]int32, len(pages))
	for li, p := range pages {
		local[p] = int32(li)
	}
	deg := make([]int32, len(pages))
	var links [][2]int32
	for li, p := range pages {
		deg[li] = int32(g.OutDegree(p))
		for _, v := range g.InternalOut(p) {
			if g.SiteOf(v) == site {
				links = append(links, [2]int32{int32(li), local[v]})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGroupSystem(len(pages), links, deg, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}
