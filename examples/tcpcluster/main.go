// tcpcluster runs the distributed algorithms over real TCP sockets: six
// page-ranker peers on localhost, each with its own goroutine-driven
// asynchronous loop, exchanging codec-framed score vectors. Halfway
// through, one peer is killed to show the survivors keep converging —
// the asynchrony/fault model of §4.2 on a real network stack.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/netpeer"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

func main() {
	gcfg := webgraph.DefaultGenConfig(6000)
	gcfg.Seed = 11
	graph, err := webgraph.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := netpeer.StartCluster(graph, netpeer.ClusterConfig{
		Params:   dprcore.Params{Alg: dprcore.DPR1, SendProb: 0.9}, // lose 10% of Y transmissions on top of TCP
		K:        6,
		MeanWait: 25 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	for i, p := range cluster.Peers {
		fmt.Printf("peer %d: %s (%d pages)\n", i, p.Addr(), cluster.Deployment.Groups[i].N())
	}

	start := time.Now()
	if err := cluster.WaitConverged(1e-4, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreached relative error 1e-4 in %.2fs of wall-clock time\n",
		time.Since(start).Seconds())

	// Kill one peer; the rest keep iterating (their sends to the dead
	// peer fail silently — exactly the loss the algorithms tolerate).
	fmt.Println("killing peer 3 ...")
	cluster.Peers[3].Close()
	loopsBefore := cluster.Peers[0].Loops()
	time.Sleep(500 * time.Millisecond)
	fmt.Printf("peer 0 kept running: %d -> %d loops\n", loopsBefore, cluster.Peers[0].Loops())

	ranks := cluster.Assemble()
	fmt.Printf("final relative error vs centralized: %.2e\n",
		vecmath.RelErr1(ranks, cluster.Reference))
	fmt.Println("\ntop pages:")
	for _, p := range vecmath.TopPages(ranks, 5) {
		fmt.Printf("  %-40s %.4f\n", graph.URL(int32(p)), ranks[p])
	}
}
