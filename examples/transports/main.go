// transports measures the §4.4 claim: indirect transmission scales,
// direct transmission does not. It runs the same DPR1 workload over
// both transports at growing ranker populations, prints measured
// per-iteration message and byte counts next to the closed-form model
// (formulas 4.1–4.4), and evaluates the paper's §4.5 worked example
// (Table 1).
//
//	go run ./examples/transports
package main

import (
	"fmt"
	"log"

	"p2prank/internal/bwmodel"
	"p2prank/internal/experiments"
	"p2prank/internal/metrics"
)

func main() {
	fmt.Println("== measured per-iteration traffic: direct vs indirect (§4.4) ==")
	w := experiments.Workload{Pages: 10000, Sites: 64, Seed: 3}
	e, err := experiments.Lookup("transmission")
	if err != nil {
		log.Fatal(err)
	}
	res, err := e.Run(experiments.Params{Workload: w, Ks: []int{8, 16, 32, 64}, MaxTime: 30})
	if err != nil {
		log.Fatal(err)
	}
	rows := res.Rows.([]experiments.TransmissionRow)
	fmt.Print(metrics.TableOf(rows))

	last := rows[len(rows)-1]
	fmt.Printf("\nat K=%d: indirect uses %.1f%% of direct's messages\n",
		last.K, 100*last.IndirectMsgs/last.DirectMsgs)

	fmt.Println("\n== the paper's worked example (§4.5, Table 1) ==")
	t1, err := bwmodel.Table1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bwmodel.RenderTable1(t1))
	fmt.Println("\nReading: ranking 3B pages over 1000 rankers cannot iterate faster")
	fmt.Println("than every ~2 hours without exceeding 1% of the Internet's bisection")
	fmt.Println("bandwidth — the paper's headline feasibility result.")

	p := bwmodel.DefaultParams()
	p.N, p.H = 1000, bwmodel.PastryHops(1000)
	fmt.Printf("\nmessage-count crossover: indirect wins for N > %.1f rankers\n", p.MessageCrossoverN())
}
