package netpeer

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
	"p2prank/internal/telemetry"
)

// churnClusterConfig is the live churn harness: reliable delivery with
// a retransmission timeout below the mean send cadence (so an unacked
// chunk retries before a fresh round supersedes it), checkpoints every
// 3 rounds, and one peer crashing at crash and restarting from its
// checkpoint 50ms later.
func churnClusterConfig(k, victim int, crash time.Duration) ClusterConfig {
	return ClusterConfig{
		Params: dprcore.Params{
			Alg:        dprcore.DPR1,
			Reliable:   dprcore.ReliableConfig{Timeout: float64(8 * time.Millisecond)},
			Checkpoint: dprcore.CheckpointConfig{Every: 3},
		},
		K:        k,
		MeanWait: 10 * time.Millisecond,
		Churn: []dprcore.ChurnEvent{{
			Ranker:    victim,
			CrashAt:   float64(crash),
			RestartAt: float64(crash + 50*time.Millisecond),
			Restart:   dprcore.RestartCheckpoint,
		}},
	}
}

// waitReplaced polls until the cluster has swapped peer i for a new one.
func waitReplaced(t *testing.T, cl *Cluster, i int, old *Peer) *Peer {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for cl.Peer(i) == old {
		if time.Now().After(deadline) {
			t.Fatalf("peer %d not restarted in 15s", i)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cl.Peer(i)
}

// TestClusterKillRestartConverges is the live side of the churn
// schedule: a peer crashes mid-run, is rebuilt from its last checkpoint
// on a fresh port, and the cluster still converges to the fault-free
// tolerance. The reliable layer must have retried while the peer was
// down.
func TestClusterKillRestartConverges(t *testing.T) {
	g := genGraph(t, 1200, 1)
	cl, err := StartCluster(g, churnClusterConfig(4, 1, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p := waitReplaced(t, cl, 1, cl.Peer(1))
	if !p.Alive() {
		t.Fatal("restarted peer not alive")
	}
	if p.Loops() == 0 {
		// Warm start: the checkpoint carried the victim's loop counter.
		t.Fatal("restarted peer started cold despite checkpoints")
	}
	rec, err := cl.Converge(1e-6, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want the one checkpoint restore", rec.Recoveries)
	}
	if rec.ReliableStats.Retries == 0 {
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

	cfg := churnClusterConfig(4, 2, 200*time.Millisecond)
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
	if _, err := cl.Converge(1e-4, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// discardSink is a Checkpointer a checkpointed restart cannot read back.
type discardSink struct{}

func (discardSink) Save(int, int64, []byte) error { return nil }

// TestBadChurnRefusedByBothDrivers: one schedule, one validator — the
// simulator and the live cluster refuse each bad schedule with the same
// dprcore error.
func TestBadChurnRefusedByBothDrivers(t *testing.T) {
	const k = 3
	g := genGraph(t, 300, 5)
	for name, tc := range map[string]struct {
		churn []dprcore.ChurnEvent
		sink  dprcore.Checkpointer
	}{
		"ranker out of range": {churn: []dprcore.ChurnEvent{{Ranker: k, CrashAt: 1, RestartAt: 2}}},
		"inverted window":     {churn: []dprcore.ChurnEvent{{Ranker: 0, CrashAt: 5, RestartAt: 2}}},
		"NaN time":            {churn: []dprcore.ChurnEvent{{Ranker: 0, CrashAt: math.NaN(), RestartAt: 2}}},
		"overlapping windows": {churn: []dprcore.ChurnEvent{
			{Ranker: 2, CrashAt: 10, RestartAt: 30}, {Ranker: 2, CrashAt: 20, RestartAt: 40}}},
		"checkpoint sink not in memory": {
			churn: []dprcore.ChurnEvent{{Ranker: 0, CrashAt: 1, RestartAt: 2, Restart: dprcore.RestartCheckpoint}},
			sink:  discardSink{},
		},
	} {
		params := dprcore.Params{Checkpoint: dprcore.CheckpointConfig{Sink: tc.sink}}
		_, simErr := engine.Run(engine.Config{Params: params, Graph: g, K: k, MaxTime: 100, Churn: tc.churn})
		cl, liveErr := StartCluster(g, ClusterConfig{Params: params, K: k, Churn: tc.churn})
		if cl != nil {
			cl.Close()
		}
		if simErr == nil || liveErr == nil {
			t.Errorf("%s: engine error %v, cluster error %v; want both refused", name, simErr, liveErr)
			continue
		}
		sim, live := errors.Unwrap(simErr), errors.Unwrap(liveErr)
		if sim == nil || live == nil || sim.Error() != live.Error() || !strings.HasPrefix(sim.Error(), "dprcore: ") {
			t.Errorf("%s: engine %q and cluster %q refuse differently", name, simErr, liveErr)
		}
	}
}

// TestWarmChurnBothDrivers runs one DPR1 schedule with a warm restart
// — §4.2's suspend — through the simulator and the live cluster, on
// each driver's own clock (unit is one mean wait). Each record must
// converge, never drop its mean loop count (the restarted ranker counts
// on from its pre-crash loops; a cold restart would fall back to 0),
// keep the average rank monotone (Thm 4.1: a warm restart rewinds
// nothing), and count no checkpoint recovery.
func TestWarmChurnBothDrivers(t *testing.T) {
	const k, victim = 4, 2
	g := genGraph(t, 1200, 13)
	params := dprcore.Params{Alg: dprcore.DPR1}
	schedule := func(unit float64) []dprcore.ChurnEvent {
		return []dprcore.ChurnEvent{{Ranker: victim, CrashAt: 5 * unit, RestartAt: 12 * unit, Restart: dprcore.RestartWarm}}
	}
	simParams := params
	simParams.T1, simParams.T2 = 1, 1
	res, err := engine.Run(engine.Config{Params: simParams, Graph: g, K: k, Strategy: partition.ByPage,
		SampleEvery: 1, MaxTime: 300, TargetRelErr: 1e-6, Churn: schedule(1)})
	if err != nil {
		t.Fatal(err)
	}
	const wait = 10 * time.Millisecond
	cl, err := StartCluster(g, ClusterConfig{Params: params, K: k, Strategy: partition.ByPage,
		MeanWait: wait, Churn: schedule(float64(wait))})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var live *dprcore.Record
	done := make(chan error, 1)
	go func() {
		var err error
		live, err = cl.Converge(1e-6, 30*time.Second)
		done <- err
	}()
	// The closed peer's count is frozen at the crash; its warm successor
	// starts from it (a cold one would start from 0).
	old := cl.Peer(victim)
	if p := waitReplaced(t, cl, victim, old); p.Loops() < old.Loops() {
		t.Errorf("restarted peer at loop %d, crashed at %d", p.Loops(), old.Loops())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*dprcore.Record{"engine": &res.Record, "cluster": live} {
		if rec.ConvergedAt < 0 {
			t.Errorf("%s: did not converge (rel err %v)", name, rec.RelErr)
		}
		for i := 1; i < len(rec.Samples); i++ {
			prev, cur := rec.Samples[i-1], rec.Samples[i]
			if cur.MeanLoops < prev.MeanLoops {
				t.Errorf("%s: mean loops fell from %v to %v at t=%v", name, prev.MeanLoops, cur.MeanLoops, cur.Time)
			}
			if cur.AvgRank < prev.AvgRank-1e-12 {
				t.Errorf("%s: average rank fell from %v to %v at t=%v (Thm 4.1)", name, prev.AvgRank, cur.AvgRank, cur.Time)
			}
		}
		if rec.Recoveries != 0 {
			t.Errorf("%s: Recoveries = %d, want 0 (warm is not a checkpoint restore)", name, rec.Recoveries)
		}
	}
}

// TestClusterChurnCloseMidRestart closes the cluster while restarts
// are running: every peer crashes at once and all restart at the same
// instant, so the serialized restarts form a burst, and Close lands at
// 200µs steps across it. Close must wait out the restart already running and keep the queued
// ones from starting, so no peer outlives the cluster.
func TestClusterChurnCloseMidRestart(t *testing.T) {
	const k = 8
	g := genGraph(t, 2000, 7)
	const restartAt = 30 * time.Millisecond
	for closeAt := restartAt - time.Millisecond; closeAt <= restartAt+3*time.Millisecond; closeAt += 200 * time.Microsecond {
		cfg := churnClusterConfig(k, 0, 0)
		cfg.Churn = nil
		for i := 0; i < k; i++ {
			cfg.Churn = append(cfg.Churn, dprcore.ChurnEvent{Ranker: i, RestartAt: float64(restartAt)})
		}
		cl, err := StartCluster(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(closeAt)
		cl.Close()
		closed := make([]*Peer, k)
		for i := range closed {
			closed[i] = cl.Peer(i)
		}
		time.Sleep(restartAt + 30*time.Millisecond - closeAt)
		for i, p := range closed {
			if q := cl.Peer(i); q != p || q.Alive() {
				t.Fatalf("close at %v: peer %d alive or replaced after Close", closeAt, i)
			}
		}
	}
}

// TestClusterChurnRestartFailureReported: a restart that cannot restore
// its checkpoint surfaces from Converge instead of panicking in
// the timer goroutine.
func TestClusterChurnRestartFailureReported(t *testing.T) {
	g := genGraph(t, 600, 9)
	mem := dprcore.NewMemCheckpointer()
	if err := mem.Save(1, 1, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	cfg := churnClusterConfig(3, 1, 0)
	// No loop reaches the cadence, so the restart loads the bad bytes.
	cfg.Checkpoint = dprcore.CheckpointConfig{Every: math.MaxInt64, Sink: mem}
	cl, err := StartCluster(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A target no run reaches: Converge polls until the restart fails.
	_, err = cl.Converge(math.SmallestNonzeroFloat64, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "restart peer 1") || !strings.Contains(err.Error(), "not a snapshot") {
		t.Fatalf("Converge = %v, want the failed restart", err)
	}
}
