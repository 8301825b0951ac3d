// searchdemo assembles the full system the paper's introduction
// sketches: a crawl partitioned over page rankers on a Pastry overlay,
// ranked distributedly with DPR1 — with every ranker publishing
// versioned, immutable rank snapshots through its checkpoint seam —
// then queried through the serving tier: per-shard partial results
// merged into a global top-k, ordered by the distributed ranks, with
// version, staleness, and overlay-hop accounting on every response.
//
//	go run ./examples/searchdemo
package main

import (
	"fmt"
	"log"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

func main() {
	const k = 16
	gcfg := webgraph.DefaultGenConfig(20000)
	gcfg.Seed = 5
	graph, err := webgraph.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Distributed ranking. The Checkpoint sink is the serving
	// store's Publisher: every 2 committed rounds each ranker's DPRS
	// checkpoint bytes become an immutable, versioned score snapshot,
	// and the Tracker turns the same rankers' commit hooks into the
	// staleness clock queries report against.
	store, err := serve.NewStore(k)
	if err != nil {
		log.Fatal(err)
	}
	params := dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6}
	params.Checkpoint.Every = 2
	params.Checkpoint.Sink = serve.NewPublisher(store, nil)
	params.Observer = serve.NewTracker(store, nil)
	res, err := engine.Run(engine.Config{
		Params: params,
		Graph:  graph, K: k, MaxTime: 400, TargetRelErr: 1e-7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ranked %d pages over %d rankers (rel err %.1e, %.1f loops/ranker)\n",
		graph.NumPages(), k, res.RelErr, res.LoopsAtConvergence)
	fmt.Printf("rankers published %d snapshot versions; current staleness %d rounds\n",
		store.Version(), store.MaxStaleness())

	// 2. The query tier: term-partitioned per-shard indexes over the
	// published snapshots, merged per query with a bounded heap — on
	// the ring and partition the run deployed the rankers over.
	ov, assign := res.Deployment.Ring, res.Deployment.Assign
	// The crawl's text is drawn once; the serving tier here and the
	// static index below are two transposes of the same term matrix.
	text, err := search.DrawTerms(graph, search.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fe, err := serve.NewFrontendFrom(text, ov, assign, store, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	q := fe.NewQuerier()

	// 3. Query. MinVersion: 1 demands ranked (not merely initialized)
	// snapshots; a too-new MinVersion would fail with ErrStaleIndex.
	var resp search.Response
	for _, terms := range [][]int32{{0}, {1, 3}, {0, 2, 5}} {
		names := make([]string, len(terms))
		for i, t := range terms {
			names[i] = search.TermName(t)
		}
		req := search.Request{Terms: terms, K: 3, From: 0, MinVersion: 1}
		if err := q.Serve(req, &resp); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquery %v (version %d, %d rounds stale, %d shards, %d lookup hops from ranker 0):\n",
			names, resp.Version, resp.Staleness, resp.Cost.Responses, resp.Cost.LookupHops)
		for _, r := range resp.Postings {
			fmt.Printf("  %-40s rank %.4f\n", graph.URL(r.Page), r.Score)
		}
		if len(resp.Postings) == 0 {
			fmt.Println("  (no page contains all terms)")
		}
	}

	// The static single-node index serves the same Request/Response API
	// — the serving tier's answers match it shard-merge for scan.
	ix, err := search.BuildFrom(text, res.Final, ov, assign)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstatic index: %d postings (%d crossed ranker boundaries to reach their term owner)\n",
		ix.PostingsTotal, ix.PostingsMoved)

	// Term ownership is a pure function of the overlay, so any ranker
	// resolves the same owner for a term.
	owner, err := ix.TermOwner(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("term %q lives on ranker %d (ID %s)\n",
		search.TermName(0), owner, ov.NodeID(int(owner)))
}
