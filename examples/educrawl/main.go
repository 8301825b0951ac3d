// educrawl replays the paper's Figure 6/7 experiment on a synthetic
// "edu crawl": 100 sites with the Google-programming-contest link
// statistics. It runs DPR1 under the three loss/speed settings (curves
// A, B, C) and prints both the relative-error decay (Figure 6) and the
// monotone average-rank sequence (Figure 7), demonstrating Theorem 4.1
// live: rank sequences never decrease, even with 30% of Y transmissions
// lost.
//
//	go run ./examples/educrawl
package main

import (
	"fmt"
	"log"
	"os"

	"p2prank/internal/experiments"
	"p2prank/internal/metrics"
	"p2prank/internal/webgraph"
)

func main() {
	// Generate the crawl once: both figures rank it, and the closing
	// line quotes its link statistics.
	w := experiments.Workload{Pages: 20000, Sites: 100, Seed: 7}
	g, err := w.Generate()
	if err != nil {
		log.Fatal(err)
	}
	w.Source = g
	stats := webgraph.ComputeStats(g)

	fmt.Println("== Figure 6: relative error (%) of DPR1 vs centralized, K=100 ==")
	fmt.Printf("workload: %s\n", stats.String())
	printEvery(figure("fig6", w).Curves, 8)

	fmt.Println("\n== Figure 7: average rank of DPR1 (monotone, plateaus ≈0.3), K=100 ==")
	fig7 := figure("fig7", w)
	printEvery(fig7.Curves, 8)
	for _, c := range fig7.Curves {
		for i := 1; i < c.Len(); i++ {
			if c.Values[i] < c.Values[i-1]-1e-12 {
				log.Fatalf("monotonicity violated on curve %q", c.Name)
			}
		}
	}
	fmt.Println("\nTheorem 4.1 verified: every curve is monotone non-decreasing.")
	fmt.Printf("converged average rank (curve A): %.3f — well below 1 because %d of %d links leave the crawl.\n",
		fig7.Curves[0].Last(),
		stats.ExternalLinks,
		stats.ExternalLinks+stats.InternalLinks)
}

// figure runs the named figure experiment at K=100 to virtual time 80.
func figure(name string, w experiments.Workload) *experiments.Result {
	e, err := experiments.Lookup(name)
	if err != nil {
		log.Fatal(err)
	}
	res, err := e.Run(experiments.Params{Workload: w, K: 100, MaxTime: 80})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// printEvery prints each curve as CSV, sampled every nth point to keep
// the terminal output readable.
func printEvery(curves []*metrics.Series, nth int) {
	thinned := make([]*metrics.Series, len(curves))
	for i, c := range curves {
		t := metrics.NewSeries(c.Name)
		for j := 0; j < c.Len(); j += nth {
			t.Add(c.Times[j], c.Values[j])
		}
		thinned[i] = t
	}
	if err := metrics.WriteCSV(os.Stdout, thinned...); err != nil {
		log.Fatal(err)
	}
}
