package netpeer

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
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

// TestDriversDeployAlike holds the places a crawl becomes K rankers to
// one deployment: engine.Run, StartCluster and the deploy step a lone
// Listen peer (a dprnode process) binds its ranker from. One graph, K,
// strategy, seed, fault config and churn schedule must give one
// partition, one set of groups and one resolved α, fault-lattice seed
// and checkpoint cadence — and dprnode -serve's frontend, which routes
// over StartCluster's ring, then owns every site alike with the
// rankers.
func TestDriversDeployAlike(t *testing.T) {
	const k, seed = 6, 3
	g := genGraph(t, 800, 29)
	params := dprcore.Params{Alg: dprcore.DPR1,
		Fault: dprcore.FaultConfig{DropProb: 0.05, PartitionFrac: 0.3, PartitionTo: 1e6}}
	churn := []dprcore.ChurnEvent{{Ranker: 1, CrashAt: 10, RestartAt: 20, Restart: dprcore.RestartCheckpoint}}

	res, err := engine.Run(engine.Config{Params: params, Graph: g, K: k, Strategy: partition.BySite,
		Seed: seed, MaxTime: 30, Churn: churn})
	if err != nil {
		t.Fatal(err)
	}
	live := ClusterConfig{Params: params, K: k, Strategy: partition.BySite, Seed: seed, Churn: churn}
	cl, err := StartCluster(g, live)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	lone, _, err := deploy(g, live)
	if err != nil {
		t.Fatal(err)
	}

	// engine.Run drops its groups when it returns; they are BuildGroups
	// over its partition and α, which Deploy built them from.
	want := res.Deployment
	want.Groups, err = dprcore.BuildGroups(g, want.Assign, want.Params.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if want.Params.Fault.Seed != seed || want.Params.Checkpoint.Every != 5 {
		t.Fatalf("engine resolved Fault.Seed %d, Checkpoint.Every %d; want %d, 5",
			want.Params.Fault.Seed, want.Params.Checkpoint.Every, seed)
	}
	for name, got := range map[string]*dprcore.Deployment{"StartCluster": cl.Deployment, "Listen": lone} {
		if !reflect.DeepEqual(got.Assign, want.Assign) || len(got.Groups) != k {
			t.Errorf("%s: partition differs from engine.Run's (%d groups)", name, len(got.Groups))
		}
		for i, grp := range got.Groups {
			w := want.Groups[i]
			if !reflect.DeepEqual(grp.Pages, w.Pages) || !reflect.DeepEqual(grp.EffDsts, w.EffDsts) ||
				!reflect.DeepEqual(grp.AffSrcs, w.AffSrcs) {
				t.Errorf("%s: group %d differs from engine.Run's", name, i)
			}
		}
		gp, wp := got.Params, want.Params
		if gp.Alpha != wp.Alpha || gp.Fault.Seed != wp.Fault.Seed || gp.Checkpoint.Every != wp.Checkpoint.Every {
			t.Errorf("%s: resolved α %v, Fault.Seed %d, Checkpoint.Every %d; engine.Run's %v, %d, %d", name,
				gp.Alpha, gp.Fault.Seed, gp.Checkpoint.Every, wp.Alpha, wp.Fault.Seed, wp.Checkpoint.Every)
		}
	}
}

func TestClusterConvergesDPR1(t *testing.T) {
	g := genGraph(t, 1200, 1)
	cl, err := StartCluster(g, ClusterConfig{Params: dprcore.Params{Alg: dprcore.DPR1}, K: 4, MeanWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A target that is not a positive finite relative error is refused
	// at once, not polled for until the timeout.
	for _, target := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		start := time.Now()
		if _, err := cl.Converge(target, time.Minute); err == nil || !strings.Contains(err.Error(), "must be positive and finite") {
			t.Fatalf("Converge(%v) = %v, want the target refused", target, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Converge(%v) took %v to refuse", target, d)
		}
	}
	if _, err := cl.Converge(1e-6, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConvergesDPR2(t *testing.T) {
	g := genGraph(t, 1200, 1)
	cl, err := StartCluster(g, ClusterConfig{Params: dprcore.Params{Alg: dprcore.DPR2}, K: 4, MeanWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Converge(1e-5, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSurvivesPeerLoss(t *testing.T) {
	g := genGraph(t, 1000, 3)
	cl, err := StartCluster(g, ClusterConfig{Params: dprcore.Params{Alg: dprcore.DPR1}, K: 4, MeanWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Let the cluster make progress, then kill one peer. The others
	// must keep running and their rank vectors keep growing (their
	// sends to the dead peer fail silently, as the algorithm allows).
	time.Sleep(200 * time.Millisecond)
	dead := cl.Peers[2]
	dead.Close()
	loopsBefore := make([]int64, len(cl.Peers))
	for i, p := range cl.Peers {
		loopsBefore[i] = p.Loops()
	}
	time.Sleep(300 * time.Millisecond)
	for i, p := range cl.Peers {
		if i == 2 {
			continue
		}
		if p.Loops() <= loopsBefore[i] {
			t.Fatalf("peer %d stalled after peer 2 died", i)
		}
	}
}

func TestClusterWithLossConverges(t *testing.T) {
	g := genGraph(t, 1000, 5)
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{Alg: dprcore.DPR1, SendProb: 0.7},
		K:      4, MeanWait: 8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Converge(1e-5, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPeerMonotoneUnderRealAsync(t *testing.T) {
	g := genGraph(t, 800, 7)
	cl, err := StartCluster(g, ClusterConfig{Params: dprcore.Params{Alg: dprcore.DPR1}, K: 3, MeanWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	prev := cl.Assemble()
	for i := 0; i < 15; i++ {
		time.Sleep(40 * time.Millisecond)
		cur := cl.Assemble()
		if !vecmath.Dominates(cur, prev, 1e-9) {
			t.Fatal("Theorem 4.1 violated over real TCP: ranks decreased")
		}
		prev = cur
	}
	// And bounded by the centralized fixed point (Theorem 4.2), which
	// the first RelErr solves.
	cl.RelErr()
	if !vecmath.Dominates(cl.Reference, prev, 1e-9) {
		t.Fatal("Theorem 4.2 violated over real TCP: ranks exceeded R*")
	}
}

// startOracleCluster starts the small DPR2 cluster the oracle tests
// share.
func startOracleCluster(t *testing.T, g *webgraph.Graph) *Cluster {
	t.Helper()
	cl, err := StartCluster(g, ClusterConfig{Params: dprcore.Params{Alg: dprcore.DPR2}, K: 3, MeanWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// StartCluster solves no R*: the first RelErr does, with the very call
// every driver measures against, so the oracle is bit-identical to
// dprcore.Reference.
func TestReferenceSolvedOnFirstUse(t *testing.T) {
	g := genGraph(t, 800, 7)
	cl := startOracleCluster(t, g)
	defer cl.Close()
	if cl.Reference != nil {
		t.Fatal("StartCluster solved the reference")
	}
	if e := cl.RelErr(); !(e >= 0) {
		t.Fatalf("RelErr = %v", e)
	}
	want, err := dprcore.Reference(g, cl.Deployment.Params.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Reference) != len(want) {
		t.Fatalf("reference has %d pages, want %d", len(cl.Reference), len(want))
	}
	for i := range want {
		if math.Float64bits(cl.Reference[i]) != math.Float64bits(want[i]) {
			t.Fatalf("reference[%d] = %v, dprcore.Reference %v", i, cl.Reference[i], want[i])
		}
	}
}

// RelErr and Converge racing for the first use solve R* once: every
// caller, and the Reference field, sees one backing array.
func TestReferenceSharedAcrossCallers(t *testing.T) {
	g := genGraph(t, 800, 7)
	cl := startOracleCluster(t, g)
	defer cl.Close()
	var wg sync.WaitGroup
	seen := make([]*float64, 4)
	errs := make([]error, 4)
	for w := range seen {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				cl.RelErr()
			} else {
				_, errs[w] = cl.Converge(1e-3, 30*time.Second)
			}
			ref, err := cl.reference()
			if err == nil {
				seen[w] = &ref[0]
			}
		}(w)
	}
	wg.Wait()
	for w, p := range seen {
		if errs[w] != nil {
			t.Fatalf("caller %d: %v", w, errs[w])
		}
		if p == nil || p != &cl.Reference[0] {
			t.Fatalf("caller %d saw a reference of its own", w)
		}
	}
}

// Once the reference exists RelErr assembles into the cluster's one
// buffer: polling it allocates nothing (measured after Close, so no
// peer allocates beside it), while Assemble still hands out a fresh
// vector.
func TestRelErrAllocatesNothing(t *testing.T) {
	g := genGraph(t, 800, 7)
	cl := startOracleCluster(t, g)
	cl.RelErr()
	cl.Close()
	if a := testing.AllocsPerRun(20, func() { cl.RelErr() }); a != 0 {
		t.Fatalf("RelErr allocates %v times per call", a)
	}
	if a, b := cl.Assemble(), cl.Assemble(); &a[0] == &b[0] || &a[0] == &cl.relBuf[0] {
		t.Fatal("Assemble returned a shared vector")
	}
	if e, want := cl.RelErr(), vecmath.RelErr1(cl.Assemble(), cl.Reference); e != want {
		t.Fatalf("RelErr = %v, the assembled vector's %v", e, want)
	}
}

// A mapped crawl closed before the first use leaves no reference to
// solve: Converge returns the error and RelErr reads NaN, instead of
// measuring against an empty vector.
func TestReferenceErrorOnClosedCrawl(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.bin")
	if err := webgraph.WriteMappedFile(path, genGraph(t, 800, 7)); err != nil {
		t.Fatal(err)
	}
	g, err := webgraph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	cl := startOracleCluster(t, g)
	defer cl.Close()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Converge(1e-3, time.Second); err == nil || !strings.Contains(err.Error(), "closed before the reference was solved") {
		t.Fatalf("Converge = %v, want the oracle's error", err)
	}
	if e := cl.RelErr(); !math.IsNaN(e) {
		t.Fatalf("RelErr = %v, want NaN", e)
	}
	if cl.Reference != nil {
		t.Fatal("a failed solve set Reference")
	}
}

func TestConfigValidation(t *testing.T) {
	g := genGraph(t, 300, 9)
	if _, err := StartCluster(g, ClusterConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := StartCluster(nil, ClusterConfig{K: 2}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestPeerAccessors(t *testing.T) {
	g := genGraph(t, 500, 11)
	cl, err := StartCluster(g, ClusterConfig{K: 3, MeanWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Peers[1]
	if p.Group() != 1 {
		t.Fatalf("Group() = %d", p.Group())
	}
	if p.Addr() == "" {
		t.Fatal("empty address")
	}
	time.Sleep(150 * time.Millisecond)
	if p.Loops() == 0 {
		t.Fatal("no loops ran")
	}
	total := int64(0)
	for _, q := range cl.Peers {
		total += q.ChunksSent()
	}
	if total == 0 {
		t.Fatal("no chunks exchanged")
	}
	// Snapshot isolation: mutating the returned vector must not touch
	// peer state.
	r := p.Ranks()
	if len(r) > 0 {
		r[0] = 1e9
		if p.Ranks()[0] == 1e9 {
			t.Fatal("Ranks() returned live state")
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	g := genGraph(t, 300, 13)
	cl, err := StartCluster(g, ClusterConfig{K: 2, MeanWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // second close must not panic or hang
}

func TestStartIdempotent(t *testing.T) {
	g := genGraph(t, 300, 15)
	cl, err := StartCluster(g, ClusterConfig{K: 2, MeanWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Peers[0].Start() // second start is a no-op
	time.Sleep(50 * time.Millisecond)
}

func TestIndirectClusterConverges(t *testing.T) {
	cfg := webgraph.DefaultGenConfig(1500)
	cfg.Sites = 30 // spread traffic across many ranker pairs
	cfg.Seed = 17
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{Alg: dprcore.DPR1},
		K:      40, MeanWait: 10 * time.Millisecond, Indirect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Converge(1e-5, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// With 40 peers the Pastry leaf set (16) no longer spans the ring,
	// so some routes take ≥2 hops and somebody must have relayed
	// foreign chunks.
	var relayed int64
	for _, p := range cl.Peers {
		relayed += p.ChunksRelayed()
	}
	if relayed == 0 {
		t.Fatal("indirect cluster never relayed a chunk")
	}
}

func TestDirectClusterNeverRelays(t *testing.T) {
	g := genGraph(t, 800, 19)
	cl, err := StartCluster(g, ClusterConfig{Params: dprcore.Params{Alg: dprcore.DPR1}, K: 4, MeanWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(300 * time.Millisecond)
	for i, p := range cl.Peers {
		if p.ChunksRelayed() != 0 {
			t.Fatalf("direct peer %d relayed %d chunks", i, p.ChunksRelayed())
		}
	}
}
