package netpeer

import (
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/telemetry"
)

// churnClusterConfig is the live churn harness: reliable delivery with
// a retransmission timeout below the mean send cadence (so an unacked
// chunk retries before a fresh round supersedes it), checkpoints on
// disk every 3 rounds, a supervisor probing every 25ms, and one peer
// killed mid-run.
func churnClusterConfig(t *testing.T, k int, kill int, after time.Duration) ClusterConfig {
	t.Helper()
	return ClusterConfig{
		Params: dprcore.Params{
			Alg:      dprcore.DPR1,
			Reliable: dprcore.ReliableConfig{Timeout: float64(8 * time.Millisecond)},
		},
		K:               k,
		MeanWait:        10 * time.Millisecond,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 3,
		Supervise:       true,
		ProbeEvery:      25 * time.Millisecond,
		Churn:           []PeerChurn{{Ranker: kill, After: after}},
	}
}

// TestClusterKillRestartConverges is the tentpole's live acceptance: a
// peer is killed mid-run, the supervisor rebuilds it from its last
// checkpoint file on a fresh port, and the cluster still converges to
// the fault-free tolerance. The reliable layer must have retried while
// the peer was down.
func TestClusterKillRestartConverges(t *testing.T) {
	g := genGraph(t, 1200, 1)
	cl, err := StartCluster(g, churnClusterConfig(t, 4, 1, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	victim := cl.Peer(1)
	deadline := time.Now().Add(15 * time.Second)
	for cl.Restarts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor performed no restart in 15s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cl.Peer(1) == victim {
		t.Fatal("restart did not replace the killed peer")
	}
	if !cl.Peer(1).Alive() {
		t.Fatal("restarted peer not alive")
	}
	if cl.Peer(1).Loops() == 0 {
		// Warm start: the checkpoint carried the victim's loop counter.
		t.Fatal("restarted peer started cold despite checkpoints")
	}
	if err := cl.WaitConverged(1e-6, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	var retries int64
	for i := 0; i < 4; i++ {
		retries += cl.Peer(i).ReliableStats().Retries
	}
	if retries == 0 {
		t.Fatal("no retransmissions while a peer was down")
	}
}

// TestClusterChurnMetricsMidRun scrapes /metrics during a churned lossy
// run: the reliability and recovery counters must be exposed and move —
// nonzero p2prank_retries_total (retransmissions under loss) and
// p2prank_recoveries_total (the checkpointed restart).
func TestClusterChurnMetricsMidRun(t *testing.T) {
	g := genGraph(t, 1200, 3)
	col := telemetry.NewCollector(4)
	srv, err := telemetry.Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := churnClusterConfig(t, 4, 2, 200*time.Millisecond)
	cfg.Fault = dprcore.FaultConfig{DropProb: 0.2}
	cfg.Observer = col
	cl, err := StartCluster(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	deadline := time.Now().Add(20 * time.Second)
	var retries, recoveries, acks float64
	for {
		body := scrape(t, srv.URL()+"/metrics")
		retries = metricSum(t, body, "p2prank_retries_total")
		recoveries = metricSum(t, body, "p2prank_recoveries_total")
		acks = metricSum(t, body, "p2prank_acks_total")
		if retries > 0 && recoveries > 0 && acks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reliability counters flat after 20s: retries=%v recoveries=%v acks=%v",
				retries, recoveries, acks)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cl.WaitConverged(1e-4, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}
