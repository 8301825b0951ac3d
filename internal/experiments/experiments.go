// Package experiments is the paper's evaluation section as code. Each
// `dprsim -exp` scenario is one entry of the registry in registry.go:
// a name, a summary, its paper defaults, the cells it sweeps and the
// run of one cell. Experiment.Run is the one way to run any of them: it
// validates and defaults the Params, fans the cells out, and returns
// typed rows whose `tab` struct tags declare their table columns.
// cmd/dprsim, the top-level benchmark harness and the examples all go
// through it, so the numbers printed by any of them come from the same
// code.
//
// Scale note: the paper ranks ~1M real pages (Google programming
// contest crawl, 100 .edu sites) on a simulator. The presets default to
// a generator-calibrated crawl a few tens of thousands of pages large —
// the same site count and link statistics, sized to run in seconds.
// Pass a bigger Pages to approach the paper's scale.
package experiments

import (
	"cmp"
	"fmt"

	"p2prank/internal/bwmodel"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/simnet"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// defaultAlpha mirrors engine.Config's Alpha default; presets that rely
// on the default pass it to engine.Reference explicitly.
const defaultAlpha = 0.85

// Workload describes the synthetic crawl a preset runs on.
type Workload struct {
	// Pages is the crawl size (default 20000).
	Pages int
	// Sites is the number of sites (default 100, the paper's count, or
	// for a crawl under 100 pages the generator's own count). Generate
	// refuses more sites than pages.
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
	w.Pages, w.Seed = cmp.Or(w.Pages, 20000), cmp.Or(w.Seed, 1)
	if w.Sites == 0 {
		w.Sites = 100
		if w.Pages < w.Sites {
			w.Sites = webgraph.DefaultGenConfig(w.Pages).Sites
		}
	}
}

// Generate builds the workload's crawl, or returns Source when one is
// set. More sites than pages is an error: a site needs at least one
// page.
func (w Workload) Generate() (*webgraph.Graph, error) {
	if w.Source != nil {
		return w.Source, nil
	}
	w.defaults()
	if w.Sites > w.Pages {
		return nil, fmt.Errorf("experiments: -sites %d exceeds -pages %d: a site needs at least one page", w.Sites, w.Pages)
	}
	cfg := webgraph.DefaultGenConfig(w.Pages)
	cfg.Sites, cfg.Seed = w.Sites, w.Seed
	return webgraph.Generate(cfg)
}

// paperModel returns the §4.5 bandwidth model of w pages on n rankers
// with h hops and g overlay neighbors, pricing links and lookups at the
// l and r the simulated fabric charges (transport.DefaultSizeModel).
func paperModel(w, n, h, g float64) bwmodel.Params {
	size := transport.DefaultSizeModel()
	return bwmodel.Params{W: w, N: n, H: h, L: float64(size.BytesPerLink), R: float64(size.LookupBytes), G: g}
}

// curve is one of the three (p, T1, T2) settings of Figures 6 and 7.
type curve struct {
	name     string
	sendProb float64
	t1, t2   float64
}

var curves = []curve{
	{"A (p=1, T1=0, T2=6)", 1.0, 0, 6},
	{"B (p=0.7, T1=0, T2=6)", 0.7, 0, 6},
	{"C (p=0.7, T1=0, T2=15)", 0.7, 0, 15},
}

// Fig8Row is one point of Figure 8: iterations to reach the threshold
// relative error for each algorithm at a ranker population.
type Fig8Row struct {
	K    int     `tab:"# of Page Rankers"`
	DPR1 float64 `tab:"DPR1" fmt:"%.1f"`
	DPR2 float64 `tab:"DPR2" fmt:"%.1f"`
	CPR  float64 `tab:"CPR" fmt:"%.0f"`
}

// fig8Target is Figure 8's threshold relative error, the paper's 0.01%.
const fig8Target = 1e-4

// fig8Loops is one Figure 8 cell: the iterations alg needs to reach
// fig8Target at K rankers (p=1, T1=T2=15), pages partitioned by site
// hash, the paper's recommended strategy. A 100-site crawl occupies at
// most 100 rankers, which is also why the paper's curve is flat from
// K=100 to K=10000.
func fig8Loops(x *env, c pair[dprcore.Algorithm]) (float64, error) {
	cfg := x.config(c.k, dprcore.Params{Alg: c.v, T1: 15, T2: 15}, 5)
	cfg.TargetRelErr = fig8Target
	run, err := engine.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("experiments: fig8 K=%d %v: %w", c.k, c.v, err)
	}
	if run.ConvergedAt < 0 {
		return 0, fmt.Errorf("experiments: fig8 K=%d %v did not converge (rel err %v)", c.k, c.v, run.RelErr)
	}
	return run.LoopsAtConvergence, nil
}

// fig8Rows joins the (K, DPR1) and (K, DPR2) cells into one row per K,
// beside the centralized iteration count.
func fig8Rows(x *env, loops []float64, res *Result) error {
	cpr, err := engine.CPRIterations(x.g, defaultAlpha, fig8Target, x.ref)
	if err != nil {
		return err
	}
	rows := make([]Fig8Row, len(x.Ks))
	for i, k := range x.Ks {
		rows[i] = Fig8Row{K: k, DPR1: loops[2*i], DPR2: loops[2*i+1], CPR: float64(cpr)}
	}
	res.Rows = rows
	return nil
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

// transmissionHalf measures one transport at K rankers and fills its
// half of the row; the indirect half carries the §4.4 model. Pages are
// partitioned by URL hash so all ranker pairs communicate, the regime
// formulas 4.1–4.4 assume.
func transmissionHalf(x *env, c pair[transport.Kind]) (TransmissionRow, error) {
	cfg := x.config(c.k, dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3}, x.MaxTime) // one sample, at the end
	cfg.Strategy = partition.ByPage
	cfg.Transport = c.v
	run, err := engine.Run(cfg)
	if err != nil {
		return TransmissionRow{}, fmt.Errorf("experiments: transmission K=%d %v: %w", c.k, c.v, err)
	}
	iters := cmp.Or(run.LoopsAtConvergence, 1)
	msgs := float64(run.NetStats.MessagesSent) / iters
	bytes := float64(run.NetStats.BytesSent) / iters
	if c.v == transport.Direct {
		return TransmissionRow{DirectMsgs: msgs, DirectBytes: bytes}, nil
	}
	p := paperModel(float64(x.Pages), float64(c.k), run.AvgHops, run.AvgNeighbors)
	return TransmissionRow{
		K: c.k, IndirectMsgs: msgs, IndirectBytes: bytes,
		ModelDirectMsgs: p.DirectMessages(), ModelIndirectMsgs: p.IndirectMessages(),
		AvgHops: run.AvgHops, AvgNeighbors: run.AvgNeighbors,
	}, nil
}

// transmissionRows joins each K's direct and indirect halves.
func transmissionRows(_ *env, halves []TransmissionRow, res *Result) error {
	rows := make([]TransmissionRow, len(halves)/2)
	for i := range rows {
		rows[i] = halves[2*i+1]
		rows[i].DirectMsgs, rows[i].DirectBytes = halves[2*i].DirectMsgs, halves[2*i].DirectBytes
	}
	res.Rows = rows
	return nil
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

// traffic runs DPR1 at K rankers under indirect transmission with a
// telemetry.Collector attached: every measured column comes from the
// collector's Summary — counted at the dprcore seam the paper's model
// describes, not reverse-engineered from transport totals. Pages are
// partitioned by URL hash so all ranker pairs communicate, the regime
// the formulas assume.
func traffic(x *env, k int) (TrafficRow, error) {
	p := dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3, Observer: telemetry.NewCollector(k)}
	cfg := x.config(k, p, x.MaxTime) // one sample, at the end
	cfg.Strategy = partition.ByPage
	run, err := engine.Run(cfg)
	if err != nil {
		return TrafficRow{}, fmt.Errorf("experiments: traffic K=%d: %w", k, err)
	}
	sum := run.Telemetry
	if sum == nil {
		return TrafficRow{}, fmt.Errorf("experiments: traffic K=%d: no telemetry summary", k)
	}
	iters := cmp.Or(sum.MeanRounds(), 1)
	h := sum.MeanChunkHops()
	bytesPerIter := float64(sum.PayloadBytes) / iters
	return TrafficRow{
		K:             k,
		MeanRounds:    sum.MeanRounds(),
		ChunksPerIter: float64(sum.Chunks) / iters,
		MsgsPerIter:   float64(sum.ChunkHops) / iters,
		BytesPerIter:  bytesPerIter,
		AvgHops:       h,
		ModelMsgs:     paperModel(float64(x.Pages), float64(k), h, run.AvgNeighbors).IndirectMessages(),
		ModelBytes:    h * bytesPerIter,
	}, nil
}

// CutRow is the §4.1 partition comparison at one strategy.
type CutRow struct {
	Strategy partition.Strategy `tab:"strategy"`
	CutFrac  float64            `tab:"cut fraction" fmt:"%.4f"`
	MaxPages int                `tab:"max pages/ranker"`
	MinPages int                `tab:"min pages/ranker"`
}

// cut measures the fraction of internal links crossing ranker
// boundaries under one partitioning strategy at K rankers — the
// evidence behind §4.1's recommendation of hash-by-site.
func cut(x *env, strat partition.Strategy) (CutRow, error) {
	ov, err := dprcore.Ring(x.K)
	if err != nil {
		return CutRow{}, err
	}
	a, err := partition.Assign(x.g, ov, strat, x.Seed)
	if err != nil {
		return CutRow{}, err
	}
	c := partition.Cut(x.g, a)
	return CutRow{Strategy: strat, CutFrac: c.CutFrac(), MaxPages: c.MaxPages, MinPages: c.MinPages}, nil
}

// HopsRow pairs a Pastry population with its measured mean lookup
// hops — the h(N) inputs of Table 1.
type HopsRow struct {
	N      int     `tab:"N"`
	Hops   float64 `tab:"measured hops" fmt:"%.2f"`
	PaperH float64 `tab:"paper model" fmt:"%.2f"`
}

// hops measures Pastry's mean lookup hop count at every population in
// ns. All of them draw from one rng stream, so the whole sweep is one
// cell.
func hops(x *env, ns []int) ([]HopsRow, error) {
	rng := xrand.New(x.Seed)
	rows := make([]HopsRow, len(ns))
	for i, n := range ns {
		ov, err := dprcore.Ring(n)
		if err != nil {
			return nil, err
		}
		h, err := overlay.AvgHops(ov, 1000, rng) // sampled lookups
		if err != nil {
			return nil, err
		}
		rows[i] = HopsRow{N: n, Hops: h, PaperH: bwmodel.PastryHops(float64(n))}
	}
	return rows, nil
}

// table1 evaluates §4.5's model at one ranker population with the
// paper's parameters (bwmodel.DefaultParams).
func table1(_ *env, n int) (bwmodel.Table1Row, error) {
	rows, err := bwmodel.Table1For(bwmodel.DefaultParams(), []float64{float64(n)})
	if err != nil {
		return bwmodel.Table1Row{}, err
	}
	return rows[0], nil
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

// bandwidth reruns the DPR1 workload under one per-node uplink budget.
// The paper's §4.5 argues analytically that bandwidth bounds the
// iteration interval and hence convergence time; here the simulator
// serializes every message through the sender's uplink, so the effect
// is measured instead of modeled.
func bandwidth(x *env, bw float64) (BandwidthRow, error) {
	cfg := x.config(x.K, dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3}, 1)
	cfg.TargetRelErr = 1e-4
	cfg.Net = simnet.NetConfig{MinLatency: 0.05, MaxLatency: 0.15, NodeBandwidth: bw}
	run, err := engine.Run(cfg)
	if err != nil {
		return BandwidthRow{}, fmt.Errorf("experiments: bandwidth %v: %w", bw, err)
	}
	return BandwidthRow{Bandwidth: bw, ConvergedAt: run.ConvergedAt, FinalRelErr: run.RelErr}, nil
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

// faults reruns the DPR1 workload under one message-drop rate injected
// at the dprcore.FaultSender seam — loss below the algorithm's own
// SendProb parameter, the regime Theorem 4.1 says must still converge.
// Delays and duplicates ride along at a fixed low rate so all three
// fault kinds are exercised.
func faults(x *env, drop float64) (FaultRow, error) {
	cfg := x.config(x.K, dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6}, 2)
	cfg.TargetRelErr = 1e-4
	if drop > 0 {
		cfg.Fault = dprcore.FaultConfig{DropProb: drop, DelayProb: 0.05, MeanDelay: 5, DupProb: 0.05}
	}
	run, err := engine.Run(cfg)
	if err != nil {
		return FaultRow{}, fmt.Errorf("experiments: drop %v: %w", drop, err)
	}
	return FaultRow{
		DropProb:    drop,
		ConvergedAt: run.ConvergedAt,
		FinalRelErr: run.RelErr,
		Dropped:     run.FaultStats.Dropped,
	}, nil
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

// crashCounts sweeps none → half the rankers crashing (0, 2, 4, 8 at
// the default K=16), scaled to K.
func crashCounts(p Params) []int {
	crashes := []int{0}
	for c := p.K / 8; c <= p.K/2 && c > 0; c *= 2 {
		crashes = append(crashes, c)
	}
	return crashes
}

// churn reruns the DPR1 workload while crashing the first crashes
// rankers mid-run. Every run carries 10% injected loss, the reliable
// delivery layer, and round-cadence checkpoints; each crashed ranker
// restarts from its last checkpoint a fixed outage later. The outage
// windows sit early in the run so convergence has to ride out the
// churn rather than finish before it.
func churn(x *env, crashes int) (ChurnRow, error) {
	cfg := x.config(x.K, dprcore.Params{
		Alg: dprcore.DPR1, T1: 0.5, T2: 3,
		Fault:    dprcore.FaultConfig{DropProb: 0.1},
		Reliable: dprcore.ReliableConfig{Timeout: 10},
		// Per-round checkpoints: the crashes land early in the
		// ramp, and a sparser cadence would turn them into cold
		// restarts instead of recoveries.
		Checkpoint: dprcore.CheckpointConfig{Every: 1},
	}, 2)
	cfg.TargetRelErr = 1e-4
	// Stagger the outages across the convergence ramp (these T1/T2
	// settings reach 1e-4 around t≈16-20): ranker j crashes at 6+2j and
	// returns 7 time units later, so the run has to converge through
	// the churn, not after it.
	cfg.Churn = make([]dprcore.ChurnEvent, crashes)
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
		return ChurnRow{}, fmt.Errorf("experiments: churn %d: %w", crashes, err)
	}
	return ChurnRow{
		Crashes:     crashes,
		ConvergedAt: run.ConvergedAt,
		FinalRelErr: run.RelErr,
		Retries:     run.ReliableStats.Retries,
		Acks:        run.ReliableStats.Acks,
		Recoveries:  run.Recoveries,
	}, nil
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

// ScaleWorkload returns the proportionally sized crawl for K rankers:
// 20 pages per ranker (the Fig-6 ratio of 20k pages / 1k rankers),
// keeping per-ranker work constant as K sweeps 10³ → 10⁵. The serving
// benches use the same crawl, hash-partitioned so every ranker serves
// a shard.
func ScaleWorkload(k int, seed uint64) Workload {
	return Workload{Pages: 20 * k, Seed: seed}
}

// scale is one decade of the scale experiment: DPR1 then DPR2 under
// indirect transmission at K rankers on the K's crawl — ranked off the
// Meter's on-disk store when it has one — pages partitioned by URL hash
// (the all-pairs regime the §4.4 formulas assume), fixed network
// latency with batched delivery: the configuration the event queue's
// in-order delivery lane and the coalesced network layer exist for. With T1 = T2 = 3
// the default horizon of 30 gives every ranker ~10 iterations, enough
// for the per-iteration traffic rates to reach steady state without
// paying for a full convergence run at 10⁵ nodes. Each run is timed on
// the Meter (reference ranks included: the graph differs per K), and
// its row carries the measured traffic and the bwmodel validation.
func scale(x *env, k int) ([]*ScaleRow, error) {
	w, store, release := ScaleWorkload(k, x.Seed), "mem", func() {}
	if x.Meter.OnDisk != nil {
		src, done, err := x.Meter.OnDisk(w)
		if err != nil {
			return nil, err
		}
		w.Source, store, release = src, "disk", done
	}
	defer release()
	var rows []*ScaleRow
	for _, alg := range []dprcore.Algorithm{dprcore.DPR1, dprcore.DPR2} {
		x.logf("scale %v K=%d pages=%d store=%s...", alg, k, w.Pages, store)
		start := x.Meter.Clock.Now()
		g, err := w.Generate()
		if err != nil {
			return nil, err
		}
		res, err := engine.Run(engine.Config{
			Params:      dprcore.Params{Alg: alg, T1: 3, T2: 3, Observer: telemetry.NewCollector(k)},
			Graph:       g,
			K:           k,
			Seed:        w.Seed,
			SampleEvery: x.MaxTime, // one sample at the end
			MaxTime:     x.MaxTime,
			Strategy:    partition.ByPage,
			Transport:   transport.Indirect,
			// Fixed latency makes same-instant deliveries to one node
			// coalesce into one event per (destination, instant).
			Net: simnet.NetConfig{MinLatency: 0.1, MaxLatency: 0.1},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scale K=%d: %w", k, err)
		}
		sum := res.Telemetry
		if sum == nil {
			return nil, fmt.Errorf("experiments: scale K=%d: no telemetry summary", k)
		}
		iters := cmp.Or(sum.MeanRounds(), 1)
		size := transport.DefaultSizeModel()
		ts := res.TransportStats
		obs := bwmodel.IndirectObserved{
			Hops:             res.AvgHops,
			MsgsPerIter:      float64(ts.DataMessages) / iters,
			SeamBytesPerIter: float64(sum.PayloadBytes) / iters,
			WireBytesPerIter: float64(ts.DataBytes-ts.DataMessages*size.HeaderBytes) / iters,
			IterInterval:     x.MaxTime / iters,
			NodeSendRate:     float64(res.NetStats.BytesSent) / (float64(k) * x.MaxTime),
		}
		p := paperModel(float64(w.Pages), float64(k), bwmodel.PastryHops(float64(k)), res.AvgNeighbors)
		row := &ScaleRow{
			K:           k,
			Pages:       w.Pages,
			Alg:         alg,
			RelErr:      res.RelErr,
			MeanRounds:  sum.MeanRounds(),
			Events:      res.Events,
			Messages:    res.NetStats.MessagesSent,
			Bytes:       res.NetStats.BytesSent,
			AvgHops:     res.AvgHops,
			Validation:  bwmodel.ValidateIndirect(p, obs),
			WallSeconds: x.Meter.Clock.Now().Sub(start).Seconds(),
			PeakRSSMB:   x.Meter.PeakRSSMB(),
		}
		if row.WallSeconds > 0 {
			row.EventsPerSec = float64(row.Events) / row.WallSeconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scaleTables is the scale experiment's layout: the headline
// wall-time/memory/throughput table, then one bwmodel-vs-telemetry
// validation table per run.
func scaleTables(rows []*ScaleRow) []*metrics.Table {
	tables := []*metrics.Table{metrics.TableOf(rows)}
	for _, r := range rows {
		t := bwmodel.ValidationTable(r.Validation)
		t.Title = fmt.Sprintf("%s K=%d: model vs telemetry", r.Alg, r.K)
		tables = append(tables, t)
	}
	return tables
}
