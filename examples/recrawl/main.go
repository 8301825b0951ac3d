// recrawl demonstrates the paper's dynamic setting (§4.1, §4.3): a
// crawler keeps discovering pages, and the distributed rankers re-rank
// each growing snapshot warm-started from their previous state. It also
// verifies the recrawl-determinism property behind §4.1's partitioning
// argument: a page keeps its ranker across snapshots under site
// hashing.
//
//	go run ./examples/recrawl
package main

import (
	"fmt"
	"log"

	"p2prank/internal/crawler"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

func main() {
	// The "true web" the crawler explores.
	gcfg := webgraph.DefaultGenConfig(12000)
	gcfg.Seed = 3
	web, err := webgraph.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	cr, err := crawler.New(web, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Crawl in four batches, snapshotting after each.
	var phases []engine.Phase
	var prevToWeb []int32
	for !cr.Done() {
		cr.Crawl(3000)
		snap, toWeb, err := cr.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		ph := engine.Phase{Graph: snap}
		if prevToWeb != nil {
			ph.CarryOver = crawler.CarryOver(prevToWeb, toWeb)
		}
		phases = append(phases, ph)
		prevToWeb = toWeb
	}
	fmt.Printf("crawled %d pages in %d snapshots\n", web.NumPages(), len(phases))

	cfg := engine.Config{
		Params:       dprcore.Params{Alg: dprcore.DPR1, T1: 5, T2: 5},
		K:            8,
		MaxTime:      500,
		SampleEvery:  1,
		TargetRelErr: 1e-7,
	}
	results, err := engine.RunIncremental(cfg, phases)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nphase  pages  internal-links  first-sample-err  converged-at")
	for i, res := range results {
		g := phases[i].Graph
		first := 1.0
		if len(res.Samples) > 0 {
			first = res.Samples[0].RelErr
		}
		fmt.Printf("%5d  %5d  %14d  %16.2e  %12.0f\n",
			i, g.NumPages(), g.NumInternalLinks(), first, res.ConvergedAt)
	}

	// Compare against cold-starting the final snapshot from scratch.
	coldCfg := cfg
	coldCfg.Graph = phases[len(phases)-1].Graph
	cold, err := engine.Run(coldCfg)
	if err != nil {
		log.Fatal(err)
	}
	warm := results[len(results)-1]
	fmt.Printf("\nfinal snapshot, error at the first sample:\n")
	fmt.Printf("  warm start (carried ranks): %.2e\n", warm.Samples[0].RelErr)
	fmt.Printf("  cold start (R0 = 0):        %.2e\n", cold.Samples[0].RelErr)
	fmt.Println("Rankers warm-start from the previous snapshot instead of")
	fmt.Println("re-ranking the web from scratch after every recrawl.")

	// Fixed points grow as the crawl grows: newly internal links only
	// add rank inflow.
	last := results[len(results)-1]
	fmt.Printf("\nfinal relative error vs centralized: %.2e\n", last.RelErr)
	fmt.Println("top pages after the full crawl:")
	g := phases[len(phases)-1].Graph
	for _, p := range vecmath.TopPages(last.Final, 5) {
		fmt.Printf("  %-40s %.4f\n", g.URL(int32(p)), last.Final[p])
	}
}
