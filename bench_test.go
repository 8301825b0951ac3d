// The two gated end-to-end benchmarks of the perf ratchet
// (cmd/benchgate): Figure 6 and the §4.4 transmission comparison, each
// run through the experiment registry at a size that takes seconds.
// Every registered experiment is timed at its golden size by
// BenchmarkExperiment in internal/experiments.
package p2prank

import (
	"testing"

	"p2prank/internal/experiments"
)

func benchWorkload() experiments.Workload {
	return experiments.Workload{Pages: 10000, Sites: 100, Seed: 1}
}

// runExperiment runs the named experiment, failing the benchmark on
// any error.
func runExperiment(b *testing.B, name string, p experiments.Params) *experiments.Result {
	b.Helper()
	e, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig6RelativeError regenerates Figure 6: DPR1's relative
// error against centralized PageRank over time for the three (p, T1,
// T2) settings. Reported metrics are the final relative errors (%) of
// the lossless (A) and lossy (C) curves — A must sit below C.
func BenchmarkFig6RelativeError(b *testing.B) {
	var lastA, lastC float64
	for i := 0; i < b.N; i++ {
		res := runExperiment(b, "fig6", experiments.Params{Workload: benchWorkload(), K: 100, MaxTime: 60})
		lastA, lastC = res.Curves[0].Last(), res.Curves[2].Last()
	}
	b.ReportMetric(lastA, "relerr%%_A_final")
	b.ReportMetric(lastC, "relerr%%_C_final")
}

// BenchmarkTransmissionScaling regenerates the §4.4 comparison
// (formulas 4.1–4.4): measured per-iteration messages of both
// transports at K=32. Indirect must use fewer.
func BenchmarkTransmissionScaling(b *testing.B) {
	var row experiments.TransmissionRow
	for i := 0; i < b.N; i++ {
		res := runExperiment(b, "transmission", experiments.Params{Workload: benchWorkload(), Ks: []int{32}, MaxTime: 20})
		row = res.Rows.([]experiments.TransmissionRow)[0]
	}
	if row.IndirectMsgs >= row.DirectMsgs {
		b.Fatalf("indirect %.0f msgs/iter not below direct %.0f", row.IndirectMsgs, row.DirectMsgs)
	}
	b.ReportMetric(row.DirectMsgs, "direct_msgs/iter")
	b.ReportMetric(row.IndirectMsgs, "indirect_msgs/iter")
}
