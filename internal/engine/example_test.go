package engine_test

import (
	"fmt"
	"log"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/pagerank"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// ExampleRun ranks a small synthetic crawl with eight asynchronous page
// rankers and verifies the result against centralized PageRank.
func ExampleRun() {
	cfg := webgraph.DefaultGenConfig(3000)
	cfg.Seed = 42
	graph, err := webgraph.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(engine.Config{
		Params:       dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6},
		Graph:        graph,
		K:            8,
		MaxTime:      500,
		TargetRelErr: 1e-8,
	})
	if err != nil {
		log.Fatal(err)
	}
	star, err := pagerank.Open(graph, pagerank.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged: %v\n", res.ConvergedAt >= 0)
	fmt.Printf("agrees with centralized: %v\n", vecmath.RelErr1(res.Final, star.Ranks) < 1e-7)
	// Output:
	// converged: true
	// agrees with centralized: true
}
