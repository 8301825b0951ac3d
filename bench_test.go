// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus ablations over the design choices DESIGN.md
// calls out. Each benchmark runs the corresponding experiment preset
// and reports the paper's metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem .
//
// regenerates the entire evaluation. Workloads are scaled to finish in
// seconds (see the scale note in internal/experiments); the shapes —
// who wins, by what factor, where crossovers fall — are what is being
// reproduced.
package p2prank

import (
	"fmt"
	"testing"

	"p2prank/internal/bwmodel"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/experiments"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
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

// BenchmarkFig7Monotonic regenerates Figure 7: the monotone average-
// rank sequence. Reported metric is the converged average rank, which
// the paper observes at ≈0.3 because 8/15 of links leave the dataset.
func BenchmarkFig7Monotonic(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		res := runExperiment(b, "fig7", experiments.Params{Workload: benchWorkload(), K: 100, MaxTime: 60})
		for _, c := range res.Curves {
			for j := 1; j < c.Len(); j++ {
				if c.Values[j] < c.Values[j-1]-1e-12 {
					b.Fatalf("monotonicity violated on %q", c.Name)
				}
			}
		}
		avg = res.Curves[0].Last()
	}
	b.ReportMetric(avg, "avg_rank_final")
}

// BenchmarkFig8Iterations regenerates Figure 8: iterations to reach
// relative error 0.01% for DPR1, DPR2, and centralized PageRank.
// Reported metrics are the K=100 values; the paper's ordering is
// DPR1 < CPR < DPR2.
func BenchmarkFig8Iterations(b *testing.B) {
	var row experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		res := runExperiment(b, "fig8", experiments.Params{Workload: benchWorkload(), Ks: []int{100}})
		row = res.Rows.([]experiments.Fig8Row)[0]
	}
	b.ReportMetric(row.DPR1, "iters_DPR1")
	b.ReportMetric(row.DPR2, "iters_DPR2")
	b.ReportMetric(row.CPR, "iters_CPR")
}

// BenchmarkTable1Model regenerates Table 1 from the §4.5 analytic
// model. Reported metrics are the N=1000 row: minimal iteration
// interval (paper: 7500 s) and bottleneck bandwidth (paper: 100 KB/s).
func BenchmarkTable1Model(b *testing.B) {
	var rows []bwmodel.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bwmodel.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].IterationSeconds, "T_N1000_seconds")
	b.ReportMetric(rows[0].BottleneckBps/1e3, "B_N1000_KBps")
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

// BenchmarkPartitionCut regenerates the §4.1 partition comparison:
// fraction of internal links crossing ranker boundaries per strategy.
func BenchmarkPartitionCut(b *testing.B) {
	var rows []experiments.CutRow
	for i := 0; i < b.N; i++ {
		res := runExperiment(b, "cut", experiments.Params{Workload: benchWorkload(), K: 32})
		rows = res.Rows.([]experiments.CutRow)
	}
	for _, r := range rows {
		switch r.Strategy {
		case partition.BySite:
			b.ReportMetric(r.CutFrac, "cut_by_site")
		case partition.ByPage:
			b.ReportMetric(r.CutFrac, "cut_by_page")
		case partition.Random:
			b.ReportMetric(r.CutFrac, "cut_random")
		}
	}
}

// BenchmarkOverlayHops measures Pastry lookup hop counts at N=1000,
// the h(N) input of Table 1 (paper: ≈2.5), through the hops
// experiment.
func BenchmarkOverlayHops(b *testing.B) {
	var h float64
	for i := 0; i < b.N; i++ {
		res := runExperiment(b, "hops", experiments.Params{Ks: []int{1000}})
		h = res.Rows.([]experiments.HopsRow)[0].Hops
	}
	b.ReportMetric(h, "hops_N1000")
}

// --- Ablations (DESIGN.md §5) ---

func ablationGraph(b *testing.B) *webgraph.Graph {
	b.Helper()
	cfg := webgraph.DefaultGenConfig(5000)
	cfg.Sites = 50
	g, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationAlpha sweeps the rank-transmission fraction α: a
// larger α means slower contraction (more iterations) but ranks that
// depend more on link structure.
func BenchmarkAblationAlpha(b *testing.B) {
	g := ablationGraph(b)
	for _, alpha := range []float64{0.5, 0.85, 0.95} {
		b.Run(benchName("alpha", alpha), func(b *testing.B) {
			var loops float64
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(engine.Config{
					Params: dprcore.Params{Alg: dprcore.DPR1, Alpha: alpha, T1: 15, T2: 15},
					Graph:  g, K: 16, MaxTime: 4000, SampleEvery: 5,
					TargetRelErr: 1e-4,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergedAt < 0 {
					b.Fatal("did not converge")
				}
				loops = res.LoopsAtConvergence
			}
			b.ReportMetric(loops, "iters")
		})
	}
}

// BenchmarkAblationInnerEpsilon sweeps DPR1's inner threshold: looser
// inner solves shift work from inner iterations to outer rounds.
func BenchmarkAblationInnerEpsilon(b *testing.B) {
	g := ablationGraph(b)
	for _, eps := range []float64{1e-4, 1e-8, 1e-12} {
		b.Run(benchName("inner_eps", eps), func(b *testing.B) {
			var loops float64
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(engine.Config{
					Params: dprcore.Params{Alg: dprcore.DPR1, InnerEpsilon: eps, T1: 15, T2: 15},
					Graph:  g, K: 16, MaxTime: 4000, SampleEvery: 5,
					TargetRelErr: 1e-4,
				})
				if err != nil {
					b.Fatal(err)
				}
				loops = res.LoopsAtConvergence
			}
			b.ReportMetric(loops, "iters")
		})
	}
}

// BenchmarkAblationPartition compares bytes moved per iteration across
// partition strategies — the quantitative version of §4.1's argument.
func BenchmarkAblationPartition(b *testing.B) {
	g := ablationGraph(b)
	for _, strat := range []partition.Strategy{partition.BySite, partition.ByPage, partition.Random} {
		b.Run(strat.String(), func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(engine.Config{
					Params: dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3},
					Graph:  g, K: 16, Strategy: strat,
					MaxTime: 40, SampleEvery: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes = float64(res.NetStats.BytesSent) / res.LoopsAtConvergence
			}
			b.ReportMetric(bytes/1e3, "KB/iter")
		})
	}
}

// BenchmarkCentralizedBaseline times the centralized solvers the
// distributed results are judged against.
func BenchmarkCentralizedBaseline(b *testing.B) {
	g := ablationGraph(b)
	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.CPRIterations(g, 0.85, 1e-4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPastryLookup times raw overlay routing, the primitive direct
// transmission pays per destination.
func BenchmarkPastryLookup(b *testing.B) {
	ov, err := engine.BuildOverlay(engine.Pastry, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if _, err := overlay.Hops(ov, i%1000, key); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v float64) string {
	return fmt.Sprintf("%s=%g", prefix, v)
}

// BenchmarkBandwidthSweep measures convergence against shrinking node
// uplinks — the empirical form of §4.5's constraint 4.7 — over the
// bandwidth experiment's five declared uplinks.
func BenchmarkBandwidthSweep(b *testing.B) {
	p := experiments.Params{Workload: experiments.Workload{Pages: 4000, Sites: 30, Seed: 7}, K: 12, MaxTime: 400}
	var rows []experiments.BandwidthRow
	for i := 0; i < b.N; i++ {
		rows = runExperiment(b, "bandwidth", p).Rows.([]experiments.BandwidthRow)
	}
	for _, r := range rows {
		switch r.Bandwidth {
		case 0:
			b.ReportMetric(r.FinalRelErr, "relerr_unlimited")
		case 2000:
			b.ReportMetric(r.FinalRelErr, "relerr_bw2000")
		case 200:
			b.ReportMetric(r.FinalRelErr, "relerr_bw200")
		}
	}
}
