package engine_test

import (
	"runtime"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/webgraph"
)

// latticeConfig is the degraded-mode robustness preset: a 30% network
// partition across the first third of the run, a quarter of the rankers
// straggling the whole run, 10% background loss, and the reliable layer
// riding over all of it.
func latticeConfig(g *webgraph.Graph) engine.Config {
	return engine.Config{
		Params: dprcore.Params{
			Alg: dprcore.DPR1, T1: 0.5, T2: 3,
			Fault: dprcore.FaultConfig{
				DropProb:      0.1,
				PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: 60,
				StraggleFrac: 0.25, StraggleFactor: 2,
				// Seed 1 cuts rankers {1,6} minority and marks {4,7}
				// stragglers — all four emit cross-group traffic on
				// this graph, so both fault kinds actually fire.
				Seed: 1,
			},
			Reliable: dprcore.ReliableConfig{Timeout: 10},
		},
		Graph: g, K: 8, Seed: 11, SampleEvery: 5, MaxTime: 450, TargetRelErr: 1e-4,
	}
}

// TestPartitionStragglerRunsBitIdenticalAcrossParallelism pins the
// fault lattice's determinism: partition membership and straggler
// hold-backs are pure hashes plus virtual-time events (zero RNG draws),
// so a run combining them with probabilistic loss and retransmission
// timers must fingerprint identically at any GOMAXPROCS.
func TestPartitionStragglerRunsBitIdenticalAcrossParallelism(t *testing.T) {
	g := detGraph(t)
	cfg := latticeConfig(g)
	var want uint64
	var wantFaults dprcore.FaultStats
	for i, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := engine.Run(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.FaultStats.Partitioned == 0 || res.FaultStats.Straggled == 0 {
			t.Fatalf("procs=%d: fault stats %+v — lattice idle, nothing to pin", procs, res.FaultStats)
		}
		got := fingerprint(t, res)
		if i == 0 {
			want, wantFaults = got, res.FaultStats
		} else {
			if got != want {
				t.Fatalf("procs=%d: partitioned fingerprint %#016x differs from serial %#016x", procs, got, want)
			}
			if res.FaultStats != wantFaults {
				t.Fatalf("procs=%d: fault stats %+v differ from serial %+v", procs, res.FaultStats, wantFaults)
			}
		}
	}
}
