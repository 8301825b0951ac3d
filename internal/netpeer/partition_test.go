package netpeer

import (
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/webgraph"
)

// TestClusterReliableAcrossPartitionHeal is the live half of the
// reliable-under-partition acceptance: a four-peer cluster runs with
// reliable delivery while a seeded partition (cluster seed 1 cuts peer
// 1 onto the minority side) blackholes cross-cut frames for the first
// 1.2s of wall time. Chunks crossing the cut exhaust their retries and
// are abandoned; after the heal acks flow again and the cluster
// converges to the fault-free tolerance.
func TestClusterReliableAcrossPartitionHeal(t *testing.T) {
	gc := webgraph.DefaultGenConfig(1200)
	gc.Sites = 20 // spread cross-group traffic over every peer pair
	gc.Seed = 17
	g, err := webgraph.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	partitionTo := float64(1200 * time.Millisecond)
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{
			Alg: dprcore.DPR1,
			Fault: dprcore.FaultConfig{
				PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: partitionTo,
			},
			Reliable: dprcore.ReliableConfig{Timeout: float64(5 * time.Millisecond)},
		},
		K: 4, MeanWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The cluster seed (default 1) keys the lattice: peer 1 is the
	// minority. Sanity-check the cut before waiting on it.
	cut := dprcore.FaultConfig{PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: partitionTo, Seed: 1}
	if !cut.PartitionMinority(1) {
		t.Fatal("expected peer 1 on the minority side of the seed-1 cut")
	}

	rec, err := cl.Converge(1e-6, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReliableStats.Acks == 0 {
		t.Fatal("no acks after the heal")
	}
	if rec.FaultStats.Partitioned == 0 {
		t.Fatal("partition window blackholed nothing")
	}
}

// TestClusterRestartKeepsPartitionAxis pins the live cluster's one time
// axis: a seed-1 partition over the first 150ms cuts peer 1 off, peer 1
// crashes at 250ms and restarts at 300ms — after the heal. Its new
// injector must measure the window from the cluster's epoch, not from
// its own construction, so it blackholes nothing.
func TestClusterRestartKeepsPartitionAxis(t *testing.T) {
	gc := webgraph.DefaultGenConfig(1200)
	gc.Sites = 20
	gc.Seed = 17
	g, err := webgraph.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	fault := dprcore.FaultConfig{PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: float64(150 * time.Millisecond)}
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{Alg: dprcore.DPR1, Fault: fault},
		K:      4, MeanWait: 10 * time.Millisecond,
		Churn: []dprcore.ChurnEvent{{
			Ranker: 1, CrashAt: float64(250 * time.Millisecond), RestartAt: float64(300 * time.Millisecond),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	old := cl.Peer(1)
	// Peer 1 sits on the minority side and sends across the cut, so an
	// injector that re-opened the window would blackhole its chunks.
	fault.Seed = 1
	crosses := false
	for _, dst := range old.grp.EffDsts {
		crosses = crosses || fault.PartitionMinority(1) != fault.PartitionMinority(int(dst))
	}
	if !fault.PartitionMinority(1) || !crosses {
		t.Fatal("expected peer 1 on the minority side of the seed-1 cut, linking across it")
	}
	p := waitReplaced(t, cl, 1, old)
	deadline := time.Now().Add(10 * time.Second)
	for p.Loops() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted peer ran %d loops in 10s", p.Loops())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := p.stack.Faults.Stats().Partitioned; n != 0 {
		t.Fatalf("restarted peer blackholed %d chunks after the cluster healed", n)
	}
}
