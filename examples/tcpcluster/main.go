// tcpcluster runs the distributed algorithms over real TCP sockets: six
// page-ranker peers on localhost, each with its own goroutine-driven
// asynchronous loop, exchanging score vectors framed with codec.Plain
// (the one wire format). Early in
// the run one peer suspends itself — its host drops off the network
// and comes back with the state it left with — to show the cluster
// rides out the outage: the asynchrony model of §4.2 on a real network
// stack.
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
		// Peer 3 is down from 50 ms to 350 ms on the cluster's clock; a
		// warm restart brings it back with its pre-outage state.
		Churn: []dprcore.ChurnEvent{{Ranker: 3, CrashAt: float64(50 * time.Millisecond),
			RestartAt: float64(350 * time.Millisecond), Restart: dprcore.RestartWarm}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	for i, grp := range cluster.Deployment.Groups {
		fmt.Printf("peer %d: %s (%d pages)\n", i, cluster.Peer(i).Addr(), grp.N())
	}
	fmt.Printf("peer 3 suspends from 50ms to 350ms\n\n")

	rec, err := cluster.Converge(1e-4, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range rec.Samples {
		if i%5 == 0 || i == len(rec.Samples)-1 {
			fmt.Printf("t=%5.2fs  relative error %.2e  average rank %.4f  mean loops %5.1f\n",
				s.Time/1e9, s.RelErr, s.AvgRank, s.MeanLoops)
		}
	}
	fmt.Printf("\nreached relative error 1e-4 at %.2fs after %.1f loops per peer\n",
		rec.ConvergedAt/1e9, rec.LoopsAtConvergence)
	fmt.Printf("final relative error vs centralized: %.2e\n", rec.RelErr)
	fmt.Println("\ntop pages:")
	for _, p := range vecmath.TopPages(rec.Final, 5) {
		fmt.Printf("  %-40s %.4f\n", graph.URL(int32(p)), rec.Final[p])
	}
}
