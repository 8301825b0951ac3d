package engine_test

import (
	"math"
	"runtime"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/webgraph"
)

// churnConfig is the robustness preset: 10% injected loss, the reliable
// delivery layer on, checkpoints every 3 rounds, and two of the eight
// rankers crashing mid-run and restarting from their checkpoints.
func churnConfig(g *webgraph.Graph, alg dprcore.Algorithm) engine.Config {
	return engine.Config{
		Params: dprcore.Params{
			Alg: alg, T1: 0.5, T2: 3,
			Fault:      dprcore.FaultConfig{DropProb: 0.1},
			Reliable:   dprcore.ReliableConfig{Timeout: 10},
			Checkpoint: dprcore.CheckpointConfig{Every: 3},
		},
		Graph: g, K: 8, Seed: 11, SampleEvery: 5, MaxTime: 450, TargetRelErr: 1e-4,
		// Both outages sit well before either algorithm's convergence
		// (~t=65 for DPR2), so the run has to ride out the churn, not
		// merely get restated by it after the fact.
		Churn: []dprcore.ChurnEvent{
			{Ranker: 2, CrashAt: 20, RestartAt: 35, Restart: dprcore.RestartCheckpoint},
			{Ranker: 5, CrashAt: 30, RestartAt: 50, Restart: dprcore.RestartCheckpoint},
		},
	}
}

// TestChurnedRunsConvergeAndRecover is the tentpole's simulation
// acceptance: with two rankers crashing mid-run under 10% message loss,
// both algorithms still reach the fault-free tolerance, every crash is
// recovered from a checkpoint, and the reliable layer actually retried.
func TestChurnedRunsConvergeAndRecover(t *testing.T) {
	g := detGraph(t)
	for name, alg := range map[string]dprcore.Algorithm{"DPR1": dprcore.DPR1, "DPR2": dprcore.DPR2} {
		t.Run(name, func(t *testing.T) {
			res, err := engine.Run(churnConfig(g, alg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Recoveries != 2 {
				t.Fatalf("Recoveries = %d, want both restarts from checkpoint", res.Recoveries)
			}
			if res.ReliableStats.Retries == 0 || res.ReliableStats.Acks == 0 {
				t.Fatalf("reliable stats %+v: layer never exercised", res.ReliableStats)
			}
			if res.ConvergedAt < 0 {
				t.Fatalf("%s did not reconverge after churn; final rel err %v", name, res.RelErr)
			}
			if res.RelErr > 1e-4 {
				t.Fatalf("%s final rel err %v above fault-free tolerance", name, res.RelErr)
			}
		})
	}
}

// TestChurnRunsBitIdenticalAcrossParallelism pins the failure path's
// determinism: crash events, checkpointed restarts, retransmission
// timers, and ack deliveries are all virtual-time events, so the whole
// churned run must fingerprint identically at any GOMAXPROCS.
func TestChurnRunsBitIdenticalAcrossParallelism(t *testing.T) {
	g := detGraph(t)
	cfg := churnConfig(g, dprcore.DPR1)
	var want uint64
	for i, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := engine.Run(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		got := fingerprint(t, res)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("procs=%d: churned fingerprint %#016x differs from serial %#016x", procs, got, want)
		}
	}
}

func TestChurnConfigValidation(t *testing.T) {
	g := detGraph(t)
	base := churnConfig(g, dprcore.DPR1)
	for name, churn := range map[string][]dprcore.ChurnEvent{
		"ranker out of range": {{Ranker: 8, CrashAt: 1, RestartAt: 2}},
		"negative ranker":     {{Ranker: -1, CrashAt: 1, RestartAt: 2}},
		"window inverted":     {{Ranker: 0, CrashAt: 5, RestartAt: 5}},
		"crash before start":  {{Ranker: 0, CrashAt: -1, RestartAt: 2}},
		"restart past end":    {{Ranker: 0, CrashAt: 1, RestartAt: 1e9}},
		"crash at NaN":        {{Ranker: 0, CrashAt: math.NaN(), RestartAt: 2}},
		"unknown mode":        {{Ranker: 0, CrashAt: 1, RestartAt: 2, Restart: dprcore.RestartWarm + 1}},
		// Overlapping or touching outages of one ranker would restart a
		// ranker that never crashed mid-run — whatever their modes.
		"windows overlap": {{Ranker: 2, CrashAt: 10, RestartAt: 30}, {Ranker: 2, CrashAt: 20, RestartAt: 40}},
		"windows touch":   {{Ranker: 2, CrashAt: 20, RestartAt: 30}, {Ranker: 2, CrashAt: 10, RestartAt: 20}},
		"warm windows overlap": {
			{Ranker: 1, CrashAt: 10, RestartAt: 60, Restart: dprcore.RestartWarm},
			{Ranker: 1, CrashAt: 30, RestartAt: 90, Restart: dprcore.RestartWarm}},
		"warm overlaps checkpoint": {
			{Ranker: 1, CrashAt: 10, RestartAt: 60, Restart: dprcore.RestartWarm},
			{Ranker: 1, CrashAt: 40, RestartAt: 70, Restart: dprcore.RestartCheckpoint}},
	} {
		cfg := base
		cfg.Churn = churn
		if _, err := engine.Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
