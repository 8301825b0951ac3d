package main

import (
	"fmt"
	"math"
	"os"

	"p2prank/bench/measure"
)

// selfcheck is the harness's own steadiness test, the one the driver
// applies before it accepts the benchmark: two sets of runs of the
// same code, each of selfcheckRuns runs per workload on as many
// seeds, interleaved A1 B1 A2 B2 … so that the machine's drift lands
// on both. For every (end-to-end metric, workload) pair it prints both
// sets' medians and quartiles and fails when a set's spread (quartile
// distance over median) or the two medians' disagreement exceeds the
// metric's bound. A spread above a third of the bound is flagged: that
// is the margin the benchmark is sized to. Counts marked exact must
// be equal in A_i and B_i.
func (h *harness) selfcheck(seed uint64, seconds float64) bool {
	const runs = selfcheckRuns
	ok := true
	fmt.Printf("selfcheck: %d workloads x 2 sets x %d runs, %.0f s measured per run, seeds %d..%d\n",
		len(h.spec.Workloads), runs, seconds, seed, seed+runs-1)
	for _, w := range h.spec.Workloads {
		name := w.Name
		sets := [2][]*Summary{}
		for i := 0; i < runs; i++ {
			for s := range sets {
				sum, err := h.run(name, seed+uint64(i), seconds, false)
				if err != nil {
					fmt.Println("FAIL", name, err)
					return false
				}
				if sum.Failed > 0 {
					fmt.Printf("FAIL %s seed %d: %v\n", name, seed+uint64(i), sum.Problems)
					ok = false
				}
				sets[s] = append(sets[s], sum)
			}
			a, b := sets[0][i], sets[1][i]
			for k, v := range a.Exact {
				if b.Exact[k] != v {
					fmt.Printf("FAIL %s seed %d: exact count %s is %v in set A and %v in set B\n", name, seed+uint64(i), k, v, b.Exact[k])
					ok = false
				}
			}
		}
		fmt.Printf("\n%s\n  %-18s %5s  %-38s %-38s %7s\n", name, "metric", "bound",
			"set A  median [q1, q3] spread", "set B  median [q1, q3] spread", "gap")
		for _, m := range h.spec.EndToEnd {
			bound := *m.Bound
			var col [2]string
			var med, spread [2]float64
			for s := range sets {
				vals := make([]float64, runs)
				for i, sum := range sets[s] {
					vals[i] = sum.Values[m.Name]
				}
				q1, q2, q3 := measure.Quartiles(vals)
				med[s], spread[s] = q2, measure.Spread(vals)
				col[s] = fmt.Sprintf("%10.5g [%10.5g, %10.5g] %5.1f%%", q2, q1, q3, 100*spread[s])
			}
			gap := (med[1] - med[0]) / med[0]
			verdict := "ok"
			switch worst := math.Max(spread[0], spread[1]); {
			case math.Abs(gap) > bound:
				verdict = "FAIL gap"
				ok = false
			case worst > bound:
				verdict = "FAIL spread"
				ok = false
			case worst > bound/3:
				verdict = "wide"
			}
			fmt.Printf("  %-18s %5.2f  %-38s %-38s %+6.1f%%  %s\n", m.Name, bound, col[0], col[1], 100*gap, verdict)
		}
		os.Stdout.Sync()
	}
	if ok {
		fmt.Println("\nselfcheck: the two sets agree within every bound")
	} else {
		fmt.Println("\nselfcheck: FAILED")
	}
	return ok
}
