// Package experiments is the paper's evaluation section as code. Each
// sweep is a typed function (Fig6, Fig8, Transmission, ...) whose rows
// declare their own table columns in `tab` struct tags, and each
// `dprsim -exp` scenario is one entry of the registry in registry.go:
// a name, a summary, defaults, and a run function returning the tables
// and curves to print. cmd/dprsim and the top-level benchmark harness
// both consume these, so the numbers printed by either always come from
// the same code.
//
// Scale note: the paper ranks ~1M real pages (Google programming
// contest crawl, 100 .edu sites) on a simulator. The presets default to
// a generator-calibrated crawl a few tens of thousands of pages large —
// the same site count and link statistics, sized to run in seconds.
// Pass a bigger Pages to approach the paper's scale.
package experiments

import (
	"fmt"

	"p2prank/internal/bwmodel"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/overlay"
	"p2prank/internal/par"
	"p2prank/internal/partition"
	"p2prank/internal/simnet"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// defaultAlpha mirrors engine.Config's Alpha default; presets that rely
// on the default pass it to engine.Reference explicitly.
const defaultAlpha = 0.85

// bed is the front half every simulated sweep shares: the workload's
// crawl and its centralized reference ranks (the dominant fixed cost),
// computed once for all of the sweep's runs.
type bed struct {
	w   Workload
	g   *webgraph.Graph
	ref vecmath.Vec
}

func newBed(w Workload) (*bed, error) {
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	return &bed{w: w, g: g, ref: ref}, nil
}

// config is one run's engine configuration on the bed: hash-by-site
// partition and indirect transmission, the paper's recommended set-up,
// sampled every sampleEvery up to maxTime — for the caller to adjust.
func (b *bed) config(k int, p dprcore.Params, sampleEvery, maxTime float64) engine.Config {
	return engine.Config{
		Params:      p,
		Graph:       b.g,
		K:           k,
		Seed:        b.w.Seed,
		Reference:   b.ref,
		Strategy:    partition.BySite,
		Transport:   transport.Indirect,
		SampleEvery: sampleEvery,
		MaxTime:     maxTime,
	}
}

// cells fills one row per cell. Cells are independent simulations —
// each owns its simulator and rng — so they run on the worker pool; the
// error returned is the one a serial loop would have stopped at.
func cells[R any](n int, cell func(i int) (R, error)) ([]R, error) {
	rows, errs := make([]R, n), make([]error, n)
	par.Default().Run(n, func(i int) { rows[i], errs[i] = cell(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// sweep is cells on w's bed.
func sweep[R any](w Workload, n int, cell func(b *bed, i int) (R, error)) ([]R, error) {
	b, err := newBed(w)
	if err != nil {
		return nil, err
	}
	return cells(n, func(i int) (R, error) { return cell(b, i) })
}

func checkK(ks ...int) error {
	if len(ks) == 0 {
		return fmt.Errorf("experiments: no ranker counts")
	}
	for _, k := range ks {
		if k <= 0 {
			return fmt.Errorf("experiments: k = %d, must be positive", k)
		}
	}
	return nil
}

// Workload describes the synthetic crawl a preset runs on.
type Workload struct {
	// Pages is the crawl size (default 20000).
	Pages int
	// Sites is the number of sites (default 100, the paper's count).
	Sites int
	// Seed drives generation and the experiment (default 1).
	Seed uint64
	// Source, if set, is used verbatim instead of generating — this is
	// how presets run against an mmap-backed on-disk graph (or a real
	// crawl) rather than an in-memory synthetic one. The caller keeps
	// ownership: a source opened from a file must stay open for the
	// preset's duration.
	Source *webgraph.Graph
}

func (w *Workload) defaults() {
	if w.Pages == 0 {
		w.Pages = 20000
	}
	if w.Sites == 0 {
		w.Sites = 100
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
}

// Generate builds the workload's crawl, or returns Source when one is
// set.
func (w Workload) Generate() (*webgraph.Graph, error) {
	if w.Source != nil {
		return w.Source, nil
	}
	w.defaults()
	cfg := webgraph.DefaultGenConfig(w.Pages)
	if w.Sites <= w.Pages {
		cfg.Sites = w.Sites
	}
	cfg.Seed = w.Seed
	return webgraph.Generate(cfg)
}

// WriteToDisk generates the workload's crawl and writes it at path in
// the version-2 mapped format, without retaining the in-memory graph.
// Pair with webgraph.OpenMapped to run presets at scales where the
// graph must not live in this process's heap.
func (w Workload) WriteToDisk(path string) error {
	g, err := w.Generate()
	if err != nil {
		return err
	}
	return webgraph.WriteMappedFile(path, g)
}

// curveParams are the three (p, T1, T2) settings of Figures 6 and 7.
var curveParams = []struct {
	name     string
	sendProb float64
	t1, t2   float64
}{
	{"A (p=1, T1=0, T2=6)", 1.0, 0, 6},
	{"B (p=0.7, T1=0, T2=6)", 0.7, 0, 6},
	{"C (p=0.7, T1=0, T2=15)", 0.7, 0, 15},
}

// FigureResult is a set of named curves over virtual time.
type FigureResult struct {
	// Curves holds one series per paper curve (A, B, C).
	Curves []*metrics.Series
	// Graph statistics for the caption.
	GraphStats webgraph.Stats
}

// Fig6 reproduces Figure 6: relative error of DPR1 against centralized
// PageRank over time, at K rankers (paper: 1000), for the three
// loss/speed settings.
func Fig6(w Workload, k int, maxTime float64) (*FigureResult, error) {
	return overTime(w, k, maxTime, func(s *dprcore.Sample) float64 {
		return s.RelErr * 100 // the paper plots percent
	})
}

// Fig7 reproduces Figure 7: the monotone average-rank sequence of DPR1
// at K rankers (paper: 100). The converged level sits near 0.25–0.3
// because 8/15 of links leave the dataset.
func Fig7(w Workload, k int, maxTime float64) (*FigureResult, error) {
	return overTime(w, k, maxTime, func(s *dprcore.Sample) float64 {
		return s.AvgRank
	})
}

func overTime(w Workload, k int, maxTime float64, metric func(*dprcore.Sample) float64) (*FigureResult, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	if maxTime <= 0 {
		return nil, fmt.Errorf("experiments: maxTime = %v, must be positive", maxTime)
	}
	b, err := newBed(w)
	if err != nil {
		return nil, err
	}
	curves, err := cells(len(curveParams), func(ci int) (*metrics.Series, error) {
		cp := curveParams[ci]
		p := dprcore.Params{Alg: dprcore.DPR1, SendProb: cp.sendProb, T1: cp.t1, T2: cp.t2}
		run, err := engine.Run(b.config(k, p, 1, maxTime))
		if err != nil {
			return nil, fmt.Errorf("experiments: curve %q: %w", cp.name, err)
		}
		s := metrics.NewSeries(cp.name)
		for i := range run.Samples {
			s.Add(run.Samples[i].Time, metric(&run.Samples[i]))
		}
		return s, nil
	})
	return &FigureResult{Curves: curves, GraphStats: webgraph.ComputeStats(b.g)}, err
}

// Fig8Row is one point of Figure 8: iterations to reach the threshold
// relative error for each algorithm at a ranker population.
type Fig8Row struct {
	K    int     `tab:"# of Page Rankers"`
	DPR1 float64 `tab:"DPR1" fmt:"%.1f"`
	DPR2 float64 `tab:"DPR2" fmt:"%.1f"`
	CPR  float64 `tab:"CPR" fmt:"%.0f"`
}

// Fig8 reproduces Figure 8: the number of iterations each algorithm
// needs to reach relative error 0.01%, versus the number of page
// rankers (paper: 2..10000; p=1, T1=T2=15). Pages are partitioned by
// site hash, the paper's recommended strategy; note that a 100-site
// crawl occupies at most 100 rankers, which is also why the paper's
// curve is flat from K=100 to K=10000.
func Fig8(w Workload, ks []int) ([]Fig8Row, error) {
	if err := checkK(ks...); err != nil {
		return nil, err
	}
	b, err := newBed(w)
	if err != nil {
		return nil, err
	}
	const target = 1e-4 // the paper's 0.01%
	cpr, err := engine.CPRIterationsFrom(b.g, defaultAlpha, target, b.ref)
	if err != nil {
		return nil, err
	}
	// Every (K, algorithm) cell is its own simulation.
	algs := []dprcore.Algorithm{dprcore.DPR1, dprcore.DPR2}
	loops, err := cells(len(ks)*len(algs), func(job int) (float64, error) {
		k, alg := ks[job/len(algs)], algs[job%len(algs)]
		cfg := b.config(k, dprcore.Params{Alg: alg, T1: 15, T2: 15}, 5, 6000)
		cfg.TargetRelErr = target
		run, err := engine.Run(cfg)
		if err != nil {
			return 0, fmt.Errorf("experiments: fig8 K=%d %v: %w", k, alg, err)
		}
		if run.ConvergedAt < 0 {
			return 0, fmt.Errorf("experiments: fig8 K=%d %v did not converge (rel err %v)", k, alg, run.RelErr)
		}
		return run.LoopsAtConvergence, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(ks))
	for i, k := range ks {
		rows[i] = Fig8Row{K: k, DPR1: loops[2*i], DPR2: loops[2*i+1], CPR: float64(cpr)}
	}
	return rows, nil
}

// TransmissionRow compares measured per-iteration traffic of the two
// transmission schemes against the closed-form model (formulas
// 4.1–4.4, with the measured h and g plugged in) at one ranker
// population.
type TransmissionRow struct {
	K                 int     `tab:"K"`
	DirectMsgs        float64 `tab:"direct msgs/iter" fmt:"%.0f"`
	IndirectMsgs      float64 `tab:"indirect msgs/iter" fmt:"%.0f"`
	ModelDirectMsgs   float64 `tab:"model S_dt" fmt:"%.0f"`
	ModelIndirectMsgs float64 `tab:"model S_it" fmt:"%.0f"`
	DirectBytes       float64 `tab:"direct B/iter" fmt:"%.0f"`
	IndirectBytes     float64 `tab:"indirect B/iter" fmt:"%.0f"`
	AvgHops           float64
	AvgNeighbors      float64
}

// Transmission measures both transports at each ranker population and
// returns rows pairing measurement with the §4.4 model. Pages are
// partitioned by URL hash so all ranker pairs communicate, the regime
// formulas 4.1–4.4 assume.
func Transmission(w Workload, ks []int, timePerRun float64) ([]TransmissionRow, error) {
	if err := checkK(ks...); err != nil {
		return nil, err
	}
	if timePerRun <= 0 {
		return nil, fmt.Errorf("experiments: timePerRun must be positive")
	}
	// One simulation per (K, transport) cell, each filling its own half
	// of a row; the halves are joined below.
	kinds := []transport.Kind{transport.Direct, transport.Indirect}
	halves, err := sweep(w, len(ks)*len(kinds), func(b *bed, job int) (TransmissionRow, error) {
		k, kind := ks[job/len(kinds)], kinds[job%len(kinds)]
		cfg := b.config(k, dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3}, timePerRun, timePerRun) // one sample, at the end
		cfg.Strategy = partition.ByPage
		cfg.Transport = kind
		run, err := engine.Run(cfg)
		if err != nil {
			return TransmissionRow{}, fmt.Errorf("experiments: transmission K=%d %v: %w", k, kind, err)
		}
		iters := run.LoopsAtConvergence
		if iters == 0 {
			iters = 1
		}
		msgs := float64(run.NetStats.MessagesSent) / iters
		bytes := float64(run.NetStats.BytesSent) / iters
		if kind == transport.Direct {
			return TransmissionRow{DirectMsgs: msgs, DirectBytes: bytes}, nil
		}
		p := bwmodel.Params{
			W: float64(b.w.Pages), N: float64(k),
			H: run.AvgHops, L: 100, R: 48, G: run.AvgNeighbors,
		}
		return TransmissionRow{
			K: k, IndirectMsgs: msgs, IndirectBytes: bytes,
			ModelDirectMsgs: p.DirectMessages(), ModelIndirectMsgs: p.IndirectMessages(),
			AvgHops: run.AvgHops, AvgNeighbors: run.AvgNeighbors,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]TransmissionRow, len(ks))
	for i := range rows {
		rows[i] = halves[2*i+1]
		rows[i].DirectMsgs, rows[i].DirectBytes = halves[2*i].DirectMsgs, halves[2*i].DirectBytes
	}
	return rows, nil
}

// TrafficRow is one §4.4 traffic measurement taken at the telemetry
// seam: per-iteration chunk, message, and payload-byte counts from the
// in-sim collector, paired with the closed-form model predictions.
type TrafficRow struct {
	K int `tab:"K"`
	// MeanRounds is the mean committed main-loop count per ranker.
	MeanRounds float64 `tab:"rounds/ranker" fmt:"%.1f"`
	// ChunksPerIter counts score chunks emitted per iteration at the
	// dprcore Sender seam (before transport framing).
	ChunksPerIter float64 `tab:"chunks/iter" fmt:"%.0f"`
	// MsgsPerIter counts overlay messages per iteration: each chunk
	// weighted by its route's hop count.
	MsgsPerIter float64 `tab:"msgs/iter" fmt:"%.0f"`
	// BytesPerIter is the per-iteration payload volume (links × l).
	BytesPerIter float64 `tab:"payload B/iter" fmt:"%.0f"`
	// AvgHops is the measured mean overlay hops per chunk.
	AvgHops float64 `tab:"hops/chunk" fmt:"%.2f"`
	// ModelMsgs is formula 4.3's S_it = g·N with the measured overlay
	// neighbor count plugged in.
	ModelMsgs float64 `tab:"model S_it" fmt:"%.0f"`
	// ModelBytes is formula 4.1's D_it = h·l·W with the measured h and
	// the links actually shipped per iteration as W·l.
	ModelBytes float64 `tab:"model D_it" fmt:"%.0f"`
}

// Traffic reproduces the §4.4 message/data cost table from telemetry:
// each ranker population runs DPR1 under indirect transmission with a
// telemetry.Collector attached, and every measured column comes from the
// collector's Summary — counted at the dprcore seam the paper's model
// describes, not reverse-engineered from transport totals. Pages are
// partitioned by URL hash so all ranker pairs communicate, the regime
// the formulas assume.
func Traffic(w Workload, ks []int, timePerRun float64) ([]TrafficRow, error) {
	if err := checkK(ks...); err != nil {
		return nil, err
	}
	if timePerRun <= 0 {
		return nil, fmt.Errorf("experiments: timePerRun must be positive")
	}
	return sweep(w, len(ks), func(b *bed, i int) (TrafficRow, error) {
		k := ks[i]
		p := dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3, Observer: telemetry.NewCollector(k)}
		cfg := b.config(k, p, timePerRun, timePerRun) // one sample, at the end
		cfg.Strategy = partition.ByPage
		run, err := engine.Run(cfg)
		if err != nil {
			return TrafficRow{}, fmt.Errorf("experiments: traffic K=%d: %w", k, err)
		}
		sum := run.Telemetry
		if sum == nil {
			return TrafficRow{}, fmt.Errorf("experiments: traffic K=%d: no telemetry summary", k)
		}
		iters := sum.MeanRounds()
		if iters == 0 {
			iters = 1
		}
		h := sum.MeanChunkHops()
		bytesPerIter := float64(sum.PayloadBytes) / iters
		return TrafficRow{
			K:             k,
			MeanRounds:    sum.MeanRounds(),
			ChunksPerIter: float64(sum.Chunks) / iters,
			MsgsPerIter:   float64(sum.ChunkHops) / iters,
			BytesPerIter:  bytesPerIter,
			AvgHops:       h,
			ModelMsgs: bwmodel.Params{
				W: float64(b.w.Pages), N: float64(k),
				H: h, L: telemetry.DefaultBytesPerLink, R: 48, G: run.AvgNeighbors,
			}.IndirectMessages(),
			ModelBytes: h * bytesPerIter,
		}, nil
	})
}

// CutRow is the §4.1 partition comparison at one strategy.
type CutRow struct {
	Strategy partition.Strategy `tab:"strategy"`
	CutFrac  float64            `tab:"cut fraction" fmt:"%.4f"`
	MaxPages int                `tab:"max pages/ranker"`
	MinPages int                `tab:"min pages/ranker"`
}

// PartitionCut measures the fraction of internal links crossing ranker
// boundaries under each partitioning strategy — the evidence behind
// §4.1's recommendation of hash-by-site.
func PartitionCut(w Workload, k int) ([]CutRow, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ov, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		return nil, err
	}
	var rows []CutRow
	for _, strat := range []partition.Strategy{partition.BySite, partition.ByPage, partition.Random} {
		a, err := partition.Assign(g, ov, strat, w.Seed)
		if err != nil {
			return nil, err
		}
		c := partition.Cut(g, a)
		rows = append(rows, CutRow{Strategy: strat, CutFrac: c.CutFrac(), MaxPages: c.MaxPages, MinPages: c.MinPages})
	}
	return rows, nil
}

// HopsRow pairs an overlay population with its measured mean lookup
// hops — the h(N) inputs of Table 1.
type HopsRow struct {
	Overlay engine.OverlayKind `tab:"overlay"`
	N       int                `tab:"N"`
	Hops    float64            `tab:"measured hops" fmt:"%.2f"`
	PaperH  float64            `tab:"paper model" fmt:"%.2f"`
}

// OverlayHops measures mean lookup hop counts at each population.
func OverlayHops(kind engine.OverlayKind, ns []int, samples int, seed uint64) ([]HopsRow, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("experiments: samples must be positive")
	}
	rng := xrand.New(seed)
	rows := make([]HopsRow, 0, len(ns))
	for _, n := range ns {
		ov, err := engine.BuildOverlay(kind, n)
		if err != nil {
			return nil, err
		}
		h, err := overlay.AvgHops(ov, samples, rng)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HopsRow{N: n, Hops: h, PaperH: bwmodel.PastryHops(float64(n)), Overlay: kind})
	}
	return rows, nil
}

// BandwidthRow records convergence under one per-node bandwidth budget
// — the measured counterpart of §4.5's constraint 4.7.
type BandwidthRow struct {
	// Bandwidth is the per-node uplink in bytes per virtual time unit
	// (0 = unlimited).
	Bandwidth float64 `tab:"node bandwidth (B/unit)" fmt:"%.0f" zero:"unlimited"`
	// ConvergedAt is the virtual time the target error was reached, or
	// -1 when the horizon expired first.
	ConvergedAt float64 `tab:"converged at" fmt:"%.0f" neg:"never"`
	// FinalRelErr is the relative error at the end of the run.
	FinalRelErr float64 `tab:"final rel err" fmt:"%.2e"`
}

// ConvergenceVsBandwidth reruns the same DPR1 workload under shrinking
// per-node uplink budgets. The paper's §4.5 argues analytically that
// bandwidth bounds the iteration interval and hence convergence time;
// here the simulator serializes every message through the sender's
// uplink, so the effect is measured instead of modeled.
func ConvergenceVsBandwidth(w Workload, k int, bws []float64, maxTime float64) ([]BandwidthRow, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	if len(bws) == 0 {
		return nil, fmt.Errorf("experiments: no bandwidth values")
	}
	for _, bw := range bws {
		if bw < 0 {
			return nil, fmt.Errorf("experiments: negative bandwidth %v", bw)
		}
	}
	return sweep(w, len(bws), func(b *bed, i int) (BandwidthRow, error) {
		cfg := b.config(k, dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3}, 1, maxTime)
		cfg.TargetRelErr = 1e-4
		cfg.Net = simnet.NetConfig{MinLatency: 0.05, MaxLatency: 0.15, NodeBandwidth: bws[i]}
		run, err := engine.Run(cfg)
		if err != nil {
			return BandwidthRow{}, fmt.Errorf("experiments: bandwidth %v: %w", bws[i], err)
		}
		return BandwidthRow{Bandwidth: bws[i], ConvergedAt: run.ConvergedAt, FinalRelErr: run.RelErr}, nil
	})
}

// FaultRow records convergence under one transport fault severity.
type FaultRow struct {
	// DropProb is the injected per-chunk drop probability.
	DropProb float64 `tab:"drop prob" fmt:"%.2f"`
	// ConvergedAt is the virtual time the target error was reached, or
	// -1 when the horizon expired first.
	ConvergedAt float64 `tab:"converged at" fmt:"%.0f" neg:"never"`
	// FinalRelErr is the relative error at the end of the run.
	FinalRelErr float64 `tab:"final rel err" fmt:"%.2e"`
	// Dropped is how many chunks the injector discarded.
	Dropped int64 `tab:"chunks dropped"`
}

// Faults reruns the same DPR1 workload under increasing message-drop
// rates injected at the dprcore.FaultSender seam — loss below the
// algorithm's own SendProb parameter, the regime Theorem 4.1 says must
// still converge. Delays and duplicates ride along at a fixed low rate
// so all three fault kinds are exercised.
func Faults(w Workload, k int, drops []float64, maxTime float64) ([]FaultRow, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	if len(drops) == 0 {
		return nil, fmt.Errorf("experiments: no drop probabilities")
	}
	return sweep(w, len(drops), func(b *bed, i int) (FaultRow, error) {
		cfg := b.config(k, dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6}, 2, maxTime)
		cfg.TargetRelErr = 1e-4
		if drops[i] > 0 {
			cfg.Fault = dprcore.FaultConfig{DropProb: drops[i], DelayProb: 0.05, MeanDelay: 5, DupProb: 0.05}
		}
		run, err := engine.Run(cfg)
		if err != nil {
			return FaultRow{}, fmt.Errorf("experiments: drop %v: %w", drops[i], err)
		}
		return FaultRow{
			DropProb:    drops[i],
			ConvergedAt: run.ConvergedAt,
			FinalRelErr: run.RelErr,
			Dropped:     run.FaultStats.Dropped,
		}, nil
	})
}

// ChurnRow records convergence under one churn severity: a number of
// rankers crashed mid-run and restarted from their checkpoints.
type ChurnRow struct {
	// Crashes is how many rankers crash (and later restart) in the run.
	Crashes int `tab:"crashes"`
	// ConvergedAt is the virtual time the target error was reached, or
	// -1 when the horizon expired first.
	ConvergedAt float64 `tab:"converged at" fmt:"%.0f" neg:"never"`
	// FinalRelErr is the relative error at the end of the run.
	FinalRelErr float64 `tab:"final rel err" fmt:"%.2e"`
	// Retries and Acks are the reliable layer's counters.
	Retries int64 `tab:"retries"`
	Acks    int64 `tab:"acks"`
	// Recoveries is the number of checkpoint restores performed.
	Recoveries int64 `tab:"recoveries"`
}

// Churn reruns the same DPR1 workload while crashing an increasing
// number of rankers mid-run. Every run carries 10% injected loss, the
// reliable delivery layer, and round-cadence checkpoints; each crashed
// ranker restarts from its last checkpoint a fixed outage later. The
// outage windows sit early in the run so convergence has to ride out
// the churn rather than finish before it.
func Churn(w Workload, k int, crashes []int, maxTime float64) ([]ChurnRow, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	if len(crashes) == 0 {
		return nil, fmt.Errorf("experiments: no crash counts")
	}
	for _, c := range crashes {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("experiments: %d crashes with %d rankers", c, k)
		}
	}
	return sweep(w, len(crashes), func(b *bed, i int) (ChurnRow, error) {
		cfg := b.config(k, dprcore.Params{
			Alg: dprcore.DPR1, T1: 0.5, T2: 3,
			Fault:    dprcore.FaultConfig{DropProb: 0.1},
			Reliable: dprcore.ReliableConfig{Timeout: 10},
			// Per-round checkpoints: the crashes land early in the
			// ramp, and a sparser cadence would turn them into cold
			// restarts instead of recoveries.
			Checkpoint: dprcore.CheckpointConfig{Every: 1},
		}, 2, maxTime)
		cfg.TargetRelErr = 1e-4
		// Stagger the outages across the convergence ramp (these
		// T1/T2 settings reach 1e-4 around t≈16-20): ranker j crashes
		// at 6+2j and returns 7 time units later, so the run has to
		// converge through the churn, not after it.
		cfg.Churn = make([]dprcore.ChurnEvent, crashes[i])
		for j := range cfg.Churn {
			cfg.Churn[j] = dprcore.ChurnEvent{
				Ranker:    j,
				CrashAt:   6 + 2*float64(j),
				RestartAt: 13 + 2*float64(j),
				Restart:   dprcore.RestartCheckpoint,
			}
		}
		run, err := engine.Run(cfg)
		if err != nil {
			return ChurnRow{}, fmt.Errorf("experiments: churn %d: %w", crashes[i], err)
		}
		return ChurnRow{
			Crashes:     crashes[i],
			ConvergedAt: run.ConvergedAt,
			FinalRelErr: run.RelErr,
			Retries:     run.ReliableStats.Retries,
			Acks:        run.ReliableStats.Acks,
			Recoveries:  run.Recoveries,
		}, nil
	})
}

// ScaleRow is one decade of the paper-scale run: DPR at K rankers on a
// proportionally sized crawl, with the §4.4–4.5 model validated against
// what the run actually measured. WallSeconds, PeakRSSMB, and
// EventsPerSec come from the Meter the command injects: wall-clock and
// process measurements are banned inside simulation-path packages by
// the nowallclock analyzer, and belong with the process owner anyway.
type ScaleRow struct {
	Alg   dprcore.Algorithm `tab:"alg"`
	K     int               `tab:"K"`
	Pages int               `tab:"pages"`
	// MeanRounds is the mean committed loop count per ranker.
	MeanRounds float64 `tab:"rounds" fmt:"%.1f"`
	// RelErr is the final relative error against centralized PageRank.
	RelErr float64 `tab:"rel err" fmt:"%.2e"`
	// Events is the number of simulator events the run executed.
	Events       uint64  `tab:"events"`
	EventsPerSec float64 `tab:"events/s" fmt:"%.2e"`
	// Messages and Bytes are network-level send totals.
	Messages    int64   `tab:"msgs"`
	Bytes       int64   `tab:"bytes"`
	WallSeconds float64 `tab:"wall" fmt:"%.1fs"`
	PeakRSSMB   float64 `tab:"peak RSS" fmt:"%.0fMB"`
	// AvgHops is the overlay's sampled mean lookup hop count.
	AvgHops float64
	// Validation compares the bwmodel predictions against telemetry.
	Validation []bwmodel.ValidationRow
}

// ScaleMaxTime is the virtual-time horizon of one scale run: with
// T1 = T2 = 3 it gives every ranker ~10 iterations — enough for the
// per-iteration traffic rates to reach steady state without paying for
// a full convergence run at 10⁵ nodes.
const ScaleMaxTime = 30.0

// ScaleWorkload returns the proportionally sized crawl for K rankers:
// 20 pages per ranker (the Fig-6 ratio of 20k pages / 1k rankers),
// keeping per-ranker work constant as K sweeps 10³ → 10⁵. The serving
// benches use the same crawl, hash-partitioned so every ranker serves
// a shard.
func ScaleWorkload(k int, seed uint64) Workload {
	return Workload{Pages: 20 * k, Sites: 100, Seed: seed}
}

// ScaleRun executes one decade of the scale experiment: DPR under
// indirect transmission at K rankers, pages partitioned by URL hash
// (the all-pairs regime the §4.4 formulas assume), fixed network
// latency with batched delivery — the configuration the calendar-queue
// scheduler and the coalesced network layer exist for. The returned
// row carries the measured traffic and the bwmodel validation;
// reference ranks are computed per run (the graph differs per K).
func ScaleRun(w Workload, k int, alg dprcore.Algorithm) (*ScaleRow, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	const maxTime = ScaleMaxTime
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		Params:      dprcore.Params{Alg: alg, T1: 3, T2: 3, Observer: telemetry.NewCollector(k)},
		Graph:       g,
		K:           k,
		Seed:        w.Seed,
		SampleEvery: maxTime, // one sample at the end
		MaxTime:     maxTime,
		Strategy:    partition.ByPage,
		Transport:   transport.Indirect,
		// Fixed latency makes same-instant deliveries to one node
		// coalesce into one event per (destination, instant).
		Net: simnet.NetConfig{MinLatency: 0.1, MaxLatency: 0.1},
	}
	res, err := engine.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: scale K=%d: %w", k, err)
	}
	sum := res.Telemetry
	if sum == nil {
		return nil, fmt.Errorf("experiments: scale K=%d: no telemetry summary", k)
	}
	iters := sum.MeanRounds()
	if iters <= 0 {
		iters = 1
	}
	size := transport.DefaultSizeModel()
	ts := res.TransportStats
	obs := bwmodel.IndirectObserved{
		Hops:             res.AvgHops,
		MsgsPerIter:      float64(ts.DataMessages) / iters,
		SeamBytesPerIter: float64(sum.PayloadBytes) / iters,
		WireBytesPerIter: float64(ts.DataBytes-ts.DataMessages*size.HeaderBytes) / iters,
		IterInterval:     maxTime / iters,
		NodeSendRate:     float64(res.NetStats.BytesSent) / (float64(k) * maxTime),
	}
	p := bwmodel.Params{
		W: float64(w.Pages), N: float64(k), H: bwmodel.PastryHops(float64(k)),
		L: telemetry.DefaultBytesPerLink, R: 48, G: res.AvgNeighbors,
	}
	return &ScaleRow{
		K:          k,
		Pages:      w.Pages,
		Alg:        alg,
		RelErr:     res.RelErr,
		MeanRounds: sum.MeanRounds(),
		Events:     res.Events,
		Messages:   res.NetStats.MessagesSent,
		Bytes:      res.NetStats.BytesSent,
		AvgHops:    res.AvgHops,
		Validation: bwmodel.ValidateIndirect(p, obs),
	}, nil
}
