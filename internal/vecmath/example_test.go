package vecmath_test

import (
	"fmt"
	"log"

	"p2prank/internal/pagerank"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// ExampleTopPages lists the best-ranked pages of a crawl.
func ExampleTopPages() {
	cfg := webgraph.DefaultGenConfig(2000)
	cfg.Seed = 7
	graph, err := webgraph.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pagerank.Open(graph, pagerank.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range vecmath.TopPages(res.Ranks, 3) {
		fmt.Printf("%d. %s\n", i+1, graph.URL(int32(p)))
	}
	// Output:
	// 1. http://site000.edu/p0.html
	// 2. http://site000.edu/p106.html
	// 3. http://site002.edu/p0.html
}
