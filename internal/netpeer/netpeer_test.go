package netpeer

import (
	"math"
	"reflect"
	"strings"
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

// TestDriversDeployAlike holds the three places a crawl becomes K
// rankers to one deployment: engine.Run, StartCluster and a single
// dprnode process calling dprcore.Deploy over engine.BuildOverlay's
// ring with the live wait default. One graph, K, strategy, seed, fault
// config and churn schedule must give one partition, one set of groups
// and one resolved α, fault-lattice seed and checkpoint cadence — and
// dprnode -serve's frontend, which routes over StartCluster's ring,
// then owns every site alike with the rankers.
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
	cl, err := StartCluster(g, ClusterConfig{Params: params, K: k, Strategy: partition.BySite,
		Seed: seed, Churn: churn})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	ring, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		t.Fatal(err)
	}
	pp := params
	pp.Defaults(float64(50*time.Millisecond), float64(50*time.Millisecond))
	proc, err := dprcore.Deploy(g, ring, partition.BySite, pp, seed, churn)
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
	for name, got := range map[string]*dprcore.Deployment{"StartCluster": cl.Deployment, "dprnode": proc} {
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
	// And bounded by the centralized fixed point (Theorem 4.2).
	if !vecmath.Dominates(cl.Reference, prev, 1e-9) {
		t.Fatal("Theorem 4.2 violated over real TCP: ranks exceeded R*")
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
	if _, err := Listen("127.0.0.1:0", Config{}); err == nil {
		t.Error("nil group accepted")
	}
	cl, err := StartCluster(g, ClusterConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	grp := cl.Peers[0]
	_ = grp
	bad := []Config{
		{Group: nil},
	}
	for i, cfg := range bad {
		if _, err := Listen("127.0.0.1:0", cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
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
