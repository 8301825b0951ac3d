package engine

import (
	"fmt"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

func makeAssignment(t testing.TB, g *webgraph.Graph, k int, strat partition.Strategy) *partition.Assignment {
	t.Helper()
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Assign(g, ov, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildGroupsCoverage(t *testing.T) {
	g := genGraph(t, 4000, 3)
	a := makeAssignment(t, g, 8, partition.BySite)
	groups, err := dprcore.BuildGroups(g, a, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 8 {
		t.Fatalf("%d groups", len(groups))
	}
	totalPages := 0
	var innerLinks, effLinks int64
	for i, grp := range groups {
		if grp.Index != i {
			t.Fatalf("group %d has index %d", i, grp.Index)
		}
		totalPages += grp.N()
		innerLinks += int64(grp.Sys.A.NNZ()) // aggregated, lower bound
		effLinks += grp.EffLinks
		if len(grp.EffOff) != len(grp.EffDsts)+1 || int(grp.EffOff[len(grp.EffDsts)]) != len(grp.Eff) {
			t.Fatalf("group %d EffDsts/EffOff/Eff mismatch", i)
		}
		for k := 1; k < len(grp.EffDsts); k++ {
			if grp.EffDsts[k-1] >= grp.EffDsts[k] {
				t.Fatalf("group %d EffDsts unsorted: %v", i, grp.EffDsts)
			}
		}
		for k, dst := range grp.EffDsts {
			if int(dst) == i {
				t.Fatalf("group %d has efferent links to itself", i)
			}
			for _, e := range grp.Eff[grp.EffOff[k]:grp.EffOff[k+1]] {
				if e.Links <= 0 {
					t.Fatalf("non-positive link count %+v", e)
				}
				if int(e.LocalSrc) >= grp.N() {
					t.Fatalf("bad local src %+v", e)
				}
				if int(e.DstLocal) >= groups[dst].N() {
					t.Fatalf("bad dst local %+v", e)
				}
			}
		}
	}
	if totalPages != g.NumPages() {
		t.Fatalf("groups cover %d of %d pages", totalPages, g.NumPages())
	}
	cut := partition.Cut(g, a)
	if effLinks != cut.InterGroupLinks {
		t.Fatalf("efferent links %d != inter-group links %d", effLinks, cut.InterGroupLinks)
	}
}

func TestBuildGroupsBadAlpha(t *testing.T) {
	g := genGraph(t, 200, 1)
	a := makeAssignment(t, g, 4, partition.BySite)
	for _, alpha := range []float64{0, 1, -1, 2} {
		if _, err := dprcore.BuildGroups(g, a, alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
}

// instantSender delivers chunks synchronously to the target ranker —
// a zero-latency lossless fabric for unit tests.
type instantSender struct {
	rankers []*ranker
	sent    int
}

func (s *instantSender) Send(from int, c transport.ScoreChunk) error {
	s.sent++
	s.rankers[c.DstGroup].Deliver(c)
	return nil
}
func (s *instantSender) Flush(from int) error { return nil }

// clusterMeanWait is the per-loop mean wait every test ranker uses, in
// virtual time units.
const clusterMeanWait = 3

// simCluster builds K rankers over an instant sender, ready to Start.
func simCluster(t *testing.T, g *webgraph.Graph, k int, p dprcore.Params, seed uint64) (*simnet.Simulator, []*ranker, *instantSender) {
	t.Helper()
	a := makeAssignment(t, g, k, partition.BySite)
	groups, err := dprcore.BuildGroups(g, a, p.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.New(seed)
	sender := &instantSender{}
	root := xrand.New(seed)
	rankers := make([]*ranker, k)
	for i := 0; i < k; i++ {
		rk, err := newRanker(groups[i], p, clusterMeanWait, sim, sender, root.Fork())
		if err != nil {
			t.Fatal(err)
		}
		rankers[i] = rk
	}
	sender.rankers = rankers
	return sim, rankers, sender
}

func assemble(g *webgraph.Graph, a *partition.Assignment, rankers []*ranker) vecmath.Vec {
	out := vecmath.NewVec(g.NumPages())
	for _, rk := range rankers {
		r := rk.Ranks()
		for li, p := range rk.Group().Pages {
			out[p] = r[li]
		}
	}
	return out
}

func baseParams(alg dprcore.Algorithm) dprcore.Params {
	return dprcore.Params{
		Alg:          alg,
		Alpha:        0.85,
		InnerEpsilon: 1e-10,
		SendProb:     1,
	}
}

func TestDPR1ConvergesToCentralized(t *testing.T) {
	g := genGraph(t, 3000, 7)
	a := makeAssignment(t, g, 6, partition.BySite)
	star, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sim, rankers, _ := simCluster(t, g, 6, baseParams(dprcore.DPR1), 11)
	for _, rk := range rankers {
		rk.Start()
	}
	sim.RunUntil(400)
	got := assemble(g, a, rankers)
	if re := vecmath.RelErr1(got, star.Ranks); re > 1e-6 {
		t.Fatalf("DPR1 relative error %v after 400 time units", re)
	}
	for _, rk := range rankers {
		rk.Stop()
	}
}

func TestDPR2ConvergesToCentralized(t *testing.T) {
	g := genGraph(t, 3000, 7)
	a := makeAssignment(t, g, 6, partition.BySite)
	star, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sim, rankers, _ := simCluster(t, g, 6, baseParams(dprcore.DPR2), 13)
	for _, rk := range rankers {
		rk.Start()
	}
	sim.RunUntil(1500)
	got := assemble(g, a, rankers)
	if re := vecmath.RelErr1(got, star.Ranks); re > 1e-5 {
		t.Fatalf("DPR2 relative error %v after 1500 time units", re)
	}
	for _, rk := range rankers {
		rk.Stop()
	}
}

// Theorem 4.1: with R0 = 0 and a static graph, every ranker's rank
// vector is monotone non-decreasing across loops, even under loss.
func TestDPR1Monotone(t *testing.T) {
	g := genGraph(t, 2000, 9)
	cfg := baseParams(dprcore.DPR1)
	cfg.SendProb = 0.7
	sim, rankers, _ := simCluster(t, g, 5, cfg, 17)
	for _, rk := range rankers {
		rk.Start()
	}
	prev := make([]vecmath.Vec, len(rankers))
	for i, rk := range rankers {
		prev[i] = rk.Ranks().Clone()
	}
	for step := 0; step < 40; step++ {
		sim.RunUntil(float64(step+1) * 5)
		for i, rk := range rankers {
			cur := rk.Ranks()
			if !vecmath.Dominates(cur, prev[i], 1e-12) {
				t.Fatalf("ranker %d rank decreased at t=%v", i, sim.Now())
			}
			prev[i] = cur.Clone()
		}
	}
	for _, rk := range rankers {
		rk.Stop()
	}
}

// Theorem 4.2: the DPR1 sequence is bounded above by the centralized
// fixed point.
func TestDPR1BoundedByCentralized(t *testing.T) {
	g := genGraph(t, 2000, 9)
	a := makeAssignment(t, g, 5, partition.BySite)
	star, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseParams(dprcore.DPR1)
	cfg.SendProb = 0.6
	sim, rankers, _ := simCluster(t, g, 5, cfg, 19)
	for _, rk := range rankers {
		rk.Start()
	}
	for step := 0; step < 30; step++ {
		sim.RunUntil(float64(step+1) * 7)
		got := assemble(g, a, rankers)
		if !vecmath.Dominates(star.Ranks, got, 1e-9) {
			t.Fatalf("distributed ranks exceeded centralized fixed point at t=%v", sim.Now())
		}
	}
	for _, rk := range rankers {
		rk.Stop()
	}
}

func TestLossSlowsButDoesNotPreventConvergence(t *testing.T) {
	g := genGraph(t, 2000, 21)
	a := makeAssignment(t, g, 5, partition.BySite)
	star, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(sendProb float64, seed uint64) float64 {
		cfg := baseParams(dprcore.DPR1)
		cfg.SendProb = sendProb
		sim, rankers, _ := simCluster(t, g, 5, cfg, seed)
		for _, rk := range rankers {
			rk.Start()
		}
		sim.RunUntil(60)
		got := assemble(g, a, rankers)
		for _, rk := range rankers {
			rk.Stop()
		}
		return vecmath.RelErr1(got, star.Ranks)
	}
	lossless := errAt(1, 23)
	lossy := errAt(0.3, 23)
	if lossy <= lossless {
		t.Fatalf("loss did not slow convergence: lossless %v, lossy %v", lossless, lossy)
	}
	// And the lossy run still converges eventually.
	cfg := baseParams(dprcore.DPR1)
	cfg.SendProb = 0.3
	sim, rankers, _ := simCluster(t, g, 5, cfg, 23)
	for _, rk := range rankers {
		rk.Start()
	}
	sim.RunUntil(2500)
	got := assemble(g, a, rankers)
	if re := vecmath.RelErr1(got, star.Ranks); re > 1e-5 {
		t.Fatalf("lossy run stuck at relative error %v", re)
	}
	for _, rk := range rankers {
		rk.Stop()
	}
}

// Staleness handling (newest-chunk-wins) is unit-tested where the
// logic lives: see internal/dprcore's TestStaleChunksIgnored.

func TestDeliverWrongGroupPanics(t *testing.T) {
	g := genGraph(t, 500, 25)
	_, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR1), 29)
	defer func() {
		if recover() == nil {
			t.Fatal("misrouted chunk accepted")
		}
	}()
	rankers[0].Deliver(transport.ScoreChunk{SrcGroup: 1, DstGroup: 2})
}

func TestStopHaltsLoops(t *testing.T) {
	g := genGraph(t, 500, 31)
	sim, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR1), 31)
	for _, rk := range rankers {
		rk.Start()
	}
	sim.RunUntil(50)
	loops := rankers[0].Loops()
	if loops == 0 {
		t.Fatal("no loops ran")
	}
	for _, rk := range rankers {
		rk.Stop()
	}
	sim.Run(0) // drain
	if rankers[0].Loops() > loops+1 {
		t.Fatalf("loops kept running after Stop: %d -> %d", loops, rankers[0].Loops())
	}
}

func TestStartIdempotent(t *testing.T) {
	g := genGraph(t, 300, 33)
	sim, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR2), 33)
	rankers[0].Start()
	rankers[0].Start() // must not double-schedule
	sim.RunUntil(20)
	// With MeanWait=3 over 20 units, a double-scheduled ranker would
	// run ~13 loops instead of ~6. Allow slack for Exp variance.
	if l := rankers[0].Loops(); l > 14 {
		t.Fatalf("suspicious loop count %d after double Start", l)
	}
	rankers[0].Stop()
}

func TestRankerConfigValidation(t *testing.T) {
	g := genGraph(t, 300, 35)
	a := makeAssignment(t, g, 2, partition.BySite)
	groups, err := dprcore.BuildGroups(g, a, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.New(1)
	sender := &instantSender{}
	rng := xrand.New(1)
	bad := []struct {
		p        dprcore.Params
		meanWait float64
	}{
		{dprcore.Params{Alg: dprcore.Algorithm(9), Alpha: 0.85, SendProb: 1}, 1},
		{dprcore.Params{Alg: dprcore.DPR1, Alpha: 0, SendProb: 1}, 1},
		{dprcore.Params{Alg: dprcore.DPR1, Alpha: 0.85, SendProb: -0.1}, 1},
		{dprcore.Params{Alg: dprcore.DPR1, Alpha: 0.85, SendProb: 2}, 1},
		{dprcore.Params{Alg: dprcore.DPR1, Alpha: 0.85, SendProb: 1}, -1},
		{dprcore.Params{Alg: dprcore.DPR1, Alpha: 0.85, InnerEpsilon: -1, SendProb: 1}, 1},
	}
	for i, tc := range bad {
		if _, err := newRanker(groups[0], tc.p, tc.meanWait, sim, sender, rng); err == nil {
			t.Errorf("params %d accepted: %+v", i, tc)
		}
	}
	if _, err := newRanker(nil, baseParams(dprcore.DPR1), 1, sim, sender, rng); err == nil {
		t.Error("nil group accepted")
	}
	if _, err := newRanker(groups[0], baseParams(dprcore.DPR1), 1, nil, sender, rng); err == nil {
		t.Error("nil simulator accepted")
	}
}

func TestRankerDeterminism(t *testing.T) {
	g := genGraph(t, 1000, 37)
	run := func() vecmath.Vec {
		a := makeAssignment(t, g, 4, partition.BySite)
		sim, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR1), 41)
		for _, rk := range rankers {
			rk.Start()
		}
		sim.RunUntil(80)
		v := assemble(g, a, rankers)
		for _, rk := range rankers {
			rk.Stop()
		}
		return v
	}
	v1, v2 := run(), run()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("nondeterministic rank at page %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}

func BenchmarkDPR1Loop(b *testing.B) {
	cfg := webgraph.DefaultGenConfig(5000)
	g, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]nodeid.ID, 8)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		b.Fatal(err)
	}
	a, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := dprcore.BuildGroups(g, a, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	sim := simnet.New(1)
	sender := &instantSender{}
	rankers := make([]*ranker, 8)
	rp := dprcore.Params{Alg: dprcore.DPR1, Alpha: 0.85, InnerEpsilon: 1e-10, SendProb: 1}
	root := xrand.New(1)
	for i := range rankers {
		rk, err := newRanker(groups[i], rp, 1, sim, sender, root.Fork())
		if err != nil {
			b.Fatal(err)
		}
		rankers[i] = rk
	}
	sender.rankers = rankers
	for _, rk := range rankers {
		rk.Start()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunUntil(sim.Now() + 10)
	}
}
