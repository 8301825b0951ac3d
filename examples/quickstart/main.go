// Quickstart: generate a paper-calibrated synthetic crawl, rank it with
// centralized open-system PageRank, rank it again with DPR1 over eight
// simulated page rankers on a Pastry overlay, and show that the two
// agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

func main() {
	// 1. A synthetic crawl with the statistics of the paper's dataset:
	// ~90% of internal links intra-site, 8/15 of links external.
	gcfg := webgraph.DefaultGenConfig(10000)
	gcfg.Seed = 42
	graph, err := webgraph.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawl: %d pages, %d sites, %d internal links\n",
		graph.NumPages(), graph.NumSites(), graph.NumInternalLinks())

	// 2. The centralized reference R*.
	star, err := pagerank.Open(graph, pagerank.Defaults())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Distributed ranking: 8 asynchronous page rankers exchanging
	// scores by indirect transmission over Pastry.
	res, err := engine.Run(engine.Config{
		Params:       dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6},
		Graph:        graph,
		K:            8,
		Strategy:     partition.BySite,
		Transport:    transport.Indirect,
		MaxTime:      500,
		TargetRelErr: 1e-8,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. They agree.
	fmt.Printf("distributed converged at virtual time %.0f (%.1f loops/ranker)\n",
		res.ConvergedAt, res.LoopsAtConvergence)
	fmt.Printf("relative error vs centralized: %.2e\n", vecmath.RelErr1(res.Final, star.Ranks))
	fmt.Printf("network: %d messages, %.1f MB\n",
		res.NetStats.MessagesSent, float64(res.NetStats.BytesSent)/1e6)

	fmt.Println("\ntop pages (distributed ranks):")
	for _, p := range vecmath.TopPages(res.Final, 5) {
		fmt.Printf("  %-40s %.4f\n", graph.URL(int32(p)), res.Final[p])
	}
}
