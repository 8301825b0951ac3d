package netpeer

import (
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/webgraph"
)

// TestClusterReliableBreakerAcrossPartitionHeal is the live half of the
// breaker/partition acceptance: a four-peer cluster runs with reliable
// delivery while a seeded partition (cluster seed 1 cuts peer 1 onto
// the minority side) blackholes cross-cut frames for the first 1.2s of
// wall time. Chunks crossing the cut exhaust their retries, so the
// senders' circuits toward the far side must open (BreakerTrips,
// Broken observed true); after the heal the post-cooldown probes land,
// acks close every circuit, and the cluster converges to the
// fault-free tolerance.
func TestClusterReliableBreakerAcrossPartitionHeal(t *testing.T) {
	gc := webgraph.DefaultGenConfig(1200)
	gc.Sites = 20 // spread cross-group traffic over every peer pair
	gc.Seed = 17
	g, err := webgraph.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	partitionTo := float64(1200 * time.Millisecond)
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{
			Alg: dprcore.DPR1,
			Fault: dprcore.FaultConfig{
				PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: partitionTo,
			},
			// Every send restarts its destination's retry count, so a
			// circuit opens only across a gap between rounds longer than
			// the six backed-off retries, 63 timeouts: ~33ms here, which
			// 10ms mean waits leave often enough inside the window. The
			// 5ms cooldown then re-probes (and re-trips) until the heal.
			Reliable: dprcore.ReliableConfig{Timeout: float64(500 * time.Microsecond)},
		},
		K: k, MeanWait: 10 * time.Millisecond,
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

	// Open: watch for a circuit across the cut (either direction) while
	// the partition is up. Broken() self-clears once the cooldown
	// lapses, so also require the monotonic trip counter.
	sawBroken := false
	deadline := time.Now().Add(10 * time.Second)
	for {
		var trips int64
		for i := 0; i < k; i++ {
			trips += cl.Peer(i).stack.Reliable.Stats().BreakerTrips
			for j := 0; j < k; j++ {
				if i != j && cut.PartitionMinority(i) != cut.PartitionMinority(j) && cl.Peer(i).stack.Reliable.Broken(j) {
					sawBroken = true
				}
			}
		}
		if trips > 0 && sawBroken {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no circuit opened across the cut in 10s (trips=%d sawBroken=%v)", trips, sawBroken)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Closed: after the heal the probes get acked and the cluster
	// reaches the fault-free fixed point.
	rec, err := cl.Converge(1e-6, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j && cl.Peer(i).stack.Reliable.Broken(j) {
				t.Fatalf("peer %d's circuit to %d still open after convergence", i, j)
			}
		}
	}
	if rec.ReliableStats.Acks == 0 {
		t.Fatal("no acks after the heal — circuits never closed by traffic")
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
	for _, dst := range old.cfg.Group.EffDsts {
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
