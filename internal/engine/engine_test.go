package engine

import (
	"math"
	"strings"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

func genGraph(t testing.TB, pages int, seed uint64) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = seed
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func baseConfig(g *webgraph.Graph) Config {
	return Config{
		Params:      dprcore.Params{Alg: dprcore.DPR1, T1: 0.5, T2: 3},
		Graph:       g,
		K:           8,
		MaxTime:     300,
		SampleEvery: 5,
	}
}

func TestRunConvergesDPR1(t *testing.T) {
	g := genGraph(t, 2500, 1)
	cfg := baseConfig(g)
	cfg.TargetRelErr = 1e-6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge; final rel err %v", res.RelErr)
	}
	if res.RelErr > 1e-6 {
		t.Fatalf("final rel err %v above target", res.RelErr)
	}
	if res.LoopsAtConvergence <= 0 {
		t.Fatal("loop count not recorded")
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	if res.NetStats.MessagesSent == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestRunConvergesDPR2(t *testing.T) {
	g := genGraph(t, 2500, 1)
	cfg := baseConfig(g)
	cfg.Alg = dprcore.DPR2
	cfg.MaxTime = 800
	cfg.TargetRelErr = 1e-5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("DPR2 did not converge; final rel err %v", res.RelErr)
	}
}

func TestRelErrDecreasesOverTime(t *testing.T) {
	g := genGraph(t, 2000, 3)
	cfg := baseConfig(g)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Samples[0].RelErr
	last := res.Samples[len(res.Samples)-1].RelErr
	if last >= first {
		t.Fatalf("relative error did not decrease: %v -> %v", first, last)
	}
}

// Figure 7's shape: the average rank rises monotonically (Theorem 4.1)
// and settles well below 1 because of external-link leakage.
func TestAvgRankMonotoneAndLeaky(t *testing.T) {
	g := genGraph(t, 2500, 5)
	cfg := baseConfig(g)
	cfg.SendProb = 0.7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].AvgRank < res.Samples[i-1].AvgRank-1e-12 {
			t.Fatalf("average rank decreased at sample %d", i)
		}
	}
	final := res.Samples[len(res.Samples)-1].AvgRank
	if final < 0.15 || final > 0.45 {
		t.Fatalf("converged average rank %v, want ≈0.3 (paper, Figure 7)", final)
	}
}

func TestDeterminism(t *testing.T) {
	g := genGraph(t, 1500, 7)
	cfg := baseConfig(g)
	cfg.MaxTime = 60
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range r1.Samples {
		if r1.Samples[i] != r2.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, r1.Samples[i], r2.Samples[i])
		}
	}
	if vecmath.Diff1(r1.Final, r2.Final) != 0 {
		t.Fatal("final ranks differ across identical runs")
	}
	if r1.NetStats != r2.NetStats {
		t.Fatalf("network stats differ: %+v vs %+v", r1.NetStats, r2.NetStats)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	g := genGraph(t, 1500, 7)
	cfg := baseConfig(g)
	cfg.MaxTime = 60
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NetStats == r2.NetStats {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestDirectTransportWorks(t *testing.T) {
	g := genGraph(t, 2000, 11)
	cfg := baseConfig(g)
	cfg.Transport = transport.Direct
	cfg.TargetRelErr = 1e-5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatal("direct-transport run did not converge")
	}
	if res.TransportStats.LookupMessages == 0 {
		t.Fatal("direct transport did no lookups")
	}
}

// pairRecorder is a Collector that also keeps every chunk's
// (source, destination) pair.
type pairRecorder struct {
	*telemetry.Collector
	pairs [][2]int
}

func (r *pairRecorder) ChunkSent(ranker int, c telemetry.ChunkStats) {
	r.pairs = append(r.pairs, [2]int{ranker, c.Dst})
	r.Collector.ChunkSent(ranker, c)
}

// Routing and hop attribution have one path at every K. This run sits
// above the node counts the old dense memos and the sampled-mean hop
// estimate were gated on: every chunk is routed by the overlay itself
// and the hops telemetry attributes are exactly the overlay's.
func TestHopAttributionExactAtLargeK(t *testing.T) {
	const k = 4500
	g := genGraph(t, 3*k, 21)
	rec := &pairRecorder{Collector: telemetry.NewCollector(k)}
	res, err := Run(Config{
		Params:    dprcore.Params{Alg: dprcore.DPR2, T1: 2, T2: 2, Observer: rec},
		Graph:     g,
		K:         k,
		Strategy:  partition.ByPage,
		Transport: transport.Indirect,
		MaxTime:   4, // about one loop per ranker, and time for its chunks to land
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.pairs) < k {
		t.Fatalf("only %d chunks sent by %d rankers; lengthen the horizon", len(rec.pairs), k)
	}
	ov, err := BuildOverlay(Pastry, k)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, p := range rec.pairs {
		h, err := overlay.Hops(ov, p[0], ov.NodeID(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		want += int64(h)
	}
	if got := rec.Summary().ChunkHops; got != want {
		t.Fatalf("telemetry attributed %d hops to %d chunks, the overlay routes them in %d", got, len(rec.pairs), want)
	}
	if res.TransportStats.RelayedChunks == 0 {
		t.Fatal("no chunk was relayed: the run never routed past one hop")
	}
}

func TestIndirectUsesFewerMessages(t *testing.T) {
	g := genGraph(t, 3000, 13)
	run := func(k transport.Kind) *Result {
		cfg := baseConfig(g)
		cfg.K = 24
		cfg.Transport = k
		cfg.MaxTime = 60
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct := run(transport.Direct)
	indirect := run(transport.Indirect)
	// Normalize by loop count: per iteration, indirect needs ≤ gN
	// messages, direct (h+1)·(pairs). With K=24 rankers the by-site
	// partition makes nearly all pairs talk.
	dPer := float64(direct.NetStats.MessagesSent) / direct.LoopsAtConvergence
	iPer := float64(indirect.NetStats.MessagesSent) / indirect.LoopsAtConvergence
	if iPer >= dPer {
		t.Fatalf("indirect %.1f msgs/iter not below direct %.1f", iPer, dPer)
	}
}

func TestRandomPartitionMovesMoreBytes(t *testing.T) {
	g := genGraph(t, 3000, 15)
	run := func(s partition.Strategy) *Result {
		cfg := baseConfig(g)
		cfg.Strategy = s
		cfg.MaxTime = 40
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bySite := run(partition.BySite)
	random := run(partition.Random)
	siteCut := partition.Cut(g, bySite.Deployment.Assign).CutFrac()
	randCut := partition.Cut(g, random.Deployment.Assign).CutFrac()
	if siteCut >= randCut {
		t.Fatalf("by-site cut %.3f not below random %.3f", siteCut, randCut)
	}
	sitePer := float64(bySite.NetStats.BytesSent) / bySite.LoopsAtConvergence
	randPer := float64(random.NetStats.BytesSent) / random.LoopsAtConvergence
	if sitePer >= randPer {
		t.Fatalf("by-site %.0f B/iter not below random %.0f B/iter", sitePer, randPer)
	}
}

func TestConfigValidation(t *testing.T) {
	g := genGraph(t, 200, 17)
	bad := []Config{
		{K: 4, MaxTime: 10},           // no graph
		{Graph: g, K: 0, MaxTime: 10}, // no rankers
		{Graph: g, K: 4},              // no horizon
		{Graph: g, K: 4, MaxTime: 10, Params: dprcore.Params{T1: 5, T2: 2}},  // inverted range
		{Graph: g, K: 4, MaxTime: 10, Params: dprcore.Params{T1: -1, T2: 2}}, // negative wait
		{Graph: g, K: 4, MaxTime: 10, SampleEvery: -1},
		{Graph: g, K: 4, MaxTime: 10, TargetRelErr: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// A ring of no rankers is an error, not a makeslice panic.
	for _, k := range []int{0, -5} {
		if _, err := BuildOverlay(Pastry, k); err == nil || !strings.Contains(err.Error(), "K =") {
			t.Errorf("BuildOverlay(Pastry, %d): err %v, want one naming K", k, err)
		}
	}
	if _, err := BuildOverlay(OverlayKind(9), 4); err == nil {
		t.Error("BuildOverlay accepted an overlay kind other than Pastry")
	}
}

// TestConfigRejectsNonFinite: NaN compares false with every bound, so a
// NaN or infinite time or threshold must be refused by name before it
// reaches the scheduler (where it panicked, stopped nothing, or never
// returned).
func TestConfigRejectsNonFinite(t *testing.T) {
	g := genGraph(t, 300, 23)
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*Config){
		"MaxTime NaN":      func(c *Config) { c.MaxTime = nan },
		"MaxTime Inf":      func(c *Config) { c.MaxTime = inf },
		"SampleEvery NaN":  func(c *Config) { c.SampleEvery = nan },
		"SampleEvery Inf":  func(c *Config) { c.SampleEvery = inf },
		"TargetRelErr NaN": func(c *Config) { c.TargetRelErr = nan },
		"TargetRelErr Inf": func(c *Config) { c.TargetRelErr = inf },
		"warm CrashAt NaN": func(c *Config) {
			c.Churn = []dprcore.ChurnEvent{{Ranker: 0, CrashAt: nan, RestartAt: 5, Restart: dprcore.RestartWarm}}
		},
		"warm RestartAt": func(c *Config) {
			c.Churn = []dprcore.ChurnEvent{{Ranker: 0, CrashAt: 1, RestartAt: nan, Restart: dprcore.RestartWarm}}
		},
		"churn CrashAt NaN": func(c *Config) { c.Churn = []dprcore.ChurnEvent{{Ranker: 0, CrashAt: nan, RestartAt: 5}} },
		"churn RestartAt":   func(c *Config) { c.Churn = []dprcore.ChurnEvent{{Ranker: 0, CrashAt: 1, RestartAt: nan}} },
	} {
		cfg := baseConfig(g)
		// A target lets a run that wrongly accepts MaxTime = Inf end.
		cfg.TargetRelErr = 1e-3
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSampleEveryBeyondMaxTime(t *testing.T) {
	g := genGraph(t, 300, 19)
	cfg := baseConfig(g)
	cfg.SampleEvery = 1000 // beyond MaxTime=300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 0 {
		t.Fatalf("%d samples recorded", len(res.Samples))
	}
	if res.RelErr <= 0 {
		t.Fatal("final state not computed")
	}
}

func TestCPRIterations(t *testing.T) {
	g := genGraph(t, 2000, 21)
	it, err := CPRIterations(g, 0.85, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Geometric contraction at rate ≲0.85·(internal fraction): needs
	// on the order of 10–40 iterations for 0.01%.
	if it < 5 || it > 60 {
		t.Fatalf("CPR iterations = %d, implausible", it)
	}
	it2, err := CPRIterations(g, 0.85, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if it2 >= it {
		t.Fatalf("looser target needs %d ≥ %d iterations", it2, it)
	}
	if _, err := CPRIterations(g, 0.85, 0); err == nil {
		t.Fatal("zero target accepted")
	}
}

// Figure 8's headline ordering: DPR1 converges in fewer outer
// iterations than CPR (each DPR1 loop runs the inner solve to a fixed
// point, so only inter-group propagation costs iterations), and DPR2
// needs the most (one Jacobi step per loop plus staleness).
func TestFig8Ordering(t *testing.T) {
	g := genGraph(t, 2500, 23)
	const target = 1e-4
	cpr, err := CPRIterations(g, 0.85, target)
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg dprcore.Algorithm) float64 {
		cfg := baseConfig(g)
		cfg.Alg = alg
		cfg.T1, cfg.T2 = 15, 15
		cfg.MaxTime = 3000
		cfg.SampleEvery = 5
		cfg.TargetRelErr = target
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConvergedAt < 0 {
			t.Fatalf("%v did not converge", alg)
		}
		return res.LoopsAtConvergence
	}
	dpr1 := run(dprcore.DPR1)
	dpr2 := run(dprcore.DPR2)
	if dpr1 >= float64(cpr) {
		t.Fatalf("DPR1 used %.1f iterations, CPR %d — paper says DPR1 < CPR", dpr1, cpr)
	}
	if dpr2 <= dpr1 {
		t.Fatalf("DPR2 used %.1f iterations, DPR1 %.1f — paper says DPR2 > DPR1", dpr2, dpr1)
	}
	if dpr2 < float64(cpr)*0.8 {
		t.Fatalf("DPR2 used %.1f iterations, CPR %d — paper says DPR2 ≳ CPR", dpr2, cpr)
	}
}

func BenchmarkRunSmall(b *testing.B) {
	cfg := webgraph.DefaultGenConfig(2000)
	g, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ecfg := Config{
		Params: dprcore.Params{Alg: dprcore.DPR1, T1: 0.5, T2: 3},
		Graph:  g, K: 8, MaxTime: 50, SampleEvery: 10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ecfg); err != nil {
			b.Fatal(err)
		}
	}
}

// §4.2's asynchrony taken to its extreme: a ranker that suspends (a
// warm churn restart) mid-run stalls global convergence while it is
// away — its stale ranks hold the error floor — and the system resumes
// and converges once it returns.
func TestWarmChurnDelaysButDoesNotPreventConvergence(t *testing.T) {
	g := genGraph(t, 2500, 25)
	base := baseConfig(g)
	base.T1, base.T2 = 2, 2
	base.MaxTime = 600
	base.TargetRelErr = 1e-7
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// Suspend the busiest ranker; under by-site partitioning some
	// rankers own no pages and suspending one of those changes nothing.
	target := 0
	pages := clean.Deployment.Assign.Pages
	for i := range pages {
		if len(pages[i]) > len(pages[target]) {
			target = i
		}
	}
	suspended := base
	suspended.Churn = []dprcore.ChurnEvent{{Ranker: target, CrashAt: 1, RestartAt: 100, Restart: dprcore.RestartWarm}}
	res, err := Run(suspended)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge after outage (rel err %v)", res.RelErr)
	}
	if res.ConvergedAt <= clean.ConvergedAt {
		t.Fatalf("outage did not delay convergence: %v vs clean %v",
			res.ConvergedAt, clean.ConvergedAt)
	}
	if res.ConvergedAt <= 100 {
		t.Fatalf("converged at %v while the busiest ranker was still down", res.ConvergedAt)
	}
	if re := res.RelErr; re > 1e-7 {
		t.Fatalf("final error %v above target", re)
	}
}

// A bad outage — a ranker out of range either way, an empty or
// inverted window, a start before zero or an end past the run — is
// refused before the run starts.
func TestDisruptionValidation(t *testing.T) {
	g := genGraph(t, 300, 27)
	base := baseConfig(g)
	bad := [][]dprcore.ChurnEvent{
		{{Ranker: -1, CrashAt: 1, RestartAt: 2, Restart: dprcore.RestartWarm}},
		{{Ranker: 99, CrashAt: 1, RestartAt: 2, Restart: dprcore.RestartWarm}},
		{{Ranker: 0, CrashAt: 5, RestartAt: 5, Restart: dprcore.RestartWarm}},
		{{Ranker: 0, CrashAt: -1, RestartAt: 2, Restart: dprcore.RestartWarm}},
		{{Ranker: 0, CrashAt: 1, RestartAt: 1e9, Restart: dprcore.RestartWarm}},
	}
	for i, churn := range bad {
		cfg := base
		cfg.Churn = churn
		if _, err := Run(cfg); err == nil {
			t.Errorf("outage set %d accepted", i)
		}
	}
}

// DPR1's monotone property survives outages: the suspended ranker's
// vector freezes, everyone else keeps growing, and the warm restart
// rewinds nothing.
func TestWarmChurnPreservesMonotonicity(t *testing.T) {
	g := genGraph(t, 2000, 29)
	cfg := baseConfig(g)
	cfg.SendProb = 0.8
	cfg.MaxTime = 200
	cfg.Churn = []dprcore.ChurnEvent{
		{Ranker: 1, CrashAt: 10, RestartAt: 60, Restart: dprcore.RestartWarm},
		{Ranker: 3, CrashAt: 30, RestartAt: 90, Restart: dprcore.RestartWarm},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].AvgRank < res.Samples[i-1].AvgRank-1e-12 {
			t.Fatalf("average rank decreased at sample %d despite Theorem 4.1", i)
		}
	}
}
