package engine

import (
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/webgraph"
)

// TestFaultDropsStillConverge injects message drops below the
// algorithm's own loss parameter and checks the run still reaches the
// fixed point — the paper's loss tolerance, exercised at the transport
// seam rather than through SendProb.
func TestFaultDropsStillConverge(t *testing.T) {
	g := genGraph(t, 2500, 1)
	cfg := baseConfig(g)
	cfg.TargetRelErr = 1e-6
	cfg.Fault = dprcore.FaultConfig{DropProb: 0.3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.Dropped == 0 {
		t.Fatal("fault injector dropped nothing")
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge under 30%% drops; final rel err %v", res.RelErr)
	}
}

// TestFaultDelayDupStillConverge exercises the other two fault kinds:
// delayed chunks arrive stale (and are discarded by round tracking),
// duplicates are idempotent.
func TestFaultDelayDupStillConverge(t *testing.T) {
	g := genGraph(t, 2000, 3)
	cfg := baseConfig(g)
	cfg.TargetRelErr = 1e-6
	cfg.Fault = dprcore.FaultConfig{DelayProb: 0.2, MeanDelay: 10, DupProb: 0.2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.Delayed == 0 || res.FaultStats.Duplicated == 0 {
		t.Fatalf("fault stats %+v missing delays or duplicates", res.FaultStats)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge under delays+duplicates; final rel err %v", res.RelErr)
	}
}

// TestFaultRunsAreDeterministic checks the injector draws from a seeded
// stream like everything else: same config, same faults, same floats.
func TestFaultRunsAreDeterministic(t *testing.T) {
	g := genGraph(t, 2000, 3)
	cfg := baseConfig(g)
	cfg.MaxTime = 60
	cfg.Fault = dprcore.FaultConfig{DropProb: 0.2, DelayProb: 0.1, MeanDelay: 5, DupProb: 0.1}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultStats != b.FaultStats {
		t.Fatalf("fault stats differ across identical runs: %+v vs %+v", a.FaultStats, b.FaultStats)
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			t.Fatalf("final ranks differ at page %d across identical fault runs", i)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	g := genGraph(t, 500, 1)
	for name, f := range map[string]dprcore.FaultConfig{
		"drop>1":             {DropProb: 1.5},
		"negative dup":       {DupProb: -0.1},
		"delay no mean":      {DelayProb: 0.5},
		"negative delay":     {DelayProb: 0.5, MeanDelay: -1},
		"partition>1":        {PartitionFrac: 1.5, PartitionFrom: 0, PartitionTo: 1},
		"partition no heal":  {PartitionFrac: 0.3, PartitionFrom: 5, PartitionTo: 5},
		"partition neg from": {PartitionFrac: 0.3, PartitionFrom: -1, PartitionTo: 5},
		"straggle no factor": {StraggleFrac: 0.2},
	} {
		cfg := baseConfig(g)
		cfg.Fault = f
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid fault config accepted", name)
		}
	}
}

// latticeGraph is the graph the partition/straggler tests run on. The
// single-site default graph funnels nearly all cross-group traffic
// through two rankers, so a random cut can miss it entirely; 40 sites
// spread cross-group edges over every ranker and make the partition's
// effect on convergence unambiguous.
func latticeGraph(t *testing.T) *webgraph.Graph {
	t.Helper()
	gc := webgraph.DefaultGenConfig(2500)
	gc.Sites = 40
	gc.Seed = 5
	g, err := webgraph.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFaultPartitionHealsAndConverges runs a 30% partition from t=0:
// while the window is active every chunk crossing the cut is blackholed
// in both directions, so the run cannot reach the fixed point (the
// never-healing control pins that), and after the heal it must get
// there with no help beyond the loops' own resends.
func TestFaultPartitionHealsAndConverges(t *testing.T) {
	g := latticeGraph(t)
	cfg := baseConfig(g)
	cfg.TargetRelErr = 1e-6
	// Seed 13 cuts rankers {1,6} onto the minority side of the 8-way
	// deployment (see TestLatticeMembershipPureAndProportional for the
	// hash's statistical behavior; the specific cut is pinned here so
	// the test exercises a real two-sided partition).
	cfg.Fault = dprcore.FaultConfig{
		PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: 60, Seed: 13,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.Partitioned == 0 {
		t.Fatal("partition window blackholed nothing")
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge after heal; final rel err %v", res.RelErr)
	}
	if res.ConvergedAt <= cfg.Fault.PartitionTo {
		t.Fatalf("ConvergedAt %v inside the partition window [%v,%v): minority traffic cannot have been blackholed",
			res.ConvergedAt, cfg.Fault.PartitionFrom, cfg.Fault.PartitionTo)
	}

	// Control: the same cut without a heal must never converge — the
	// minority's score mass stays frozen out of the global fixed point.
	cfg.Fault.PartitionTo = 1e9
	ctl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.ConvergedAt >= 0 {
		t.Fatalf("converged at %v under a never-healing partition (rel err %v)", ctl.ConvergedAt, ctl.RelErr)
	}
}

// TestFaultStragglersStillConverge marks a quarter of the rankers as
// persistent stragglers: every chunk they emit is held back by a fixed
// factor. Unlike DelayProb's per-chunk lottery the same seeded nodes
// stay slow all run, so convergence is gated on the slowest quartile.
func TestFaultStragglersStillConverge(t *testing.T) {
	g := latticeGraph(t)
	cfg := baseConfig(g)
	cfg.TargetRelErr = 1e-6
	cfg.Fault = dprcore.FaultConfig{StraggleFrac: 0.25, StraggleFactor: 2, Seed: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.Straggled == 0 {
		t.Fatal("straggler hold-back applied to nothing")
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge with stragglers; final rel err %v", res.RelErr)
	}
}

// TestReliableBreakerRidesOutPartition is the simulated half of the
// breaker/partition acceptance: with reliable delivery on, a partition
// makes every cross-cut chunk time out until the sender's dead-peer
// circuit opens (BreakerTrips), subsequent rounds are swallowed by the
// open circuit instead of burning retries (Suppressed), and after the
// heal the next post-cooldown send probes the peer, the ack closes the
// circuit, and the run converges — open, half-open, closed, in one
// virtual-time run.
func TestReliableBreakerRidesOutPartition(t *testing.T) {
	g := latticeGraph(t)
	cfg := baseConfig(g)
	cfg.MaxTime = 450
	cfg.TargetRelErr = 1e-6
	cfg.Fault = dprcore.FaultConfig{
		PartitionFrac: 0.3, PartitionFrom: 0, PartitionTo: 120, Seed: 13,
	}
	// Every send restarts its destination's retry count, so a circuit
	// opens only across a gap between rounds longer than the six backed-
	// off retries (63 timeouts). Timeout 0.1 makes that 6.3 units, which
	// waits drawn with means in [T1, T2] = [0.5, 3] leave often enough
	// inside the 120-unit window; the 1-unit cooldown then expires mid-partition (re-probe, re-trip)
	// and once more after the heal (probe succeeds, ack closes the
	// circuit).
	cfg.Reliable = dprcore.ReliableConfig{Timeout: 0.1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReliableStats.BreakerTrips == 0 {
		t.Fatalf("reliable stats %+v: no circuit opened during the partition", res.ReliableStats)
	}
	if res.ReliableStats.Suppressed == 0 {
		t.Fatalf("reliable stats %+v: open circuit suppressed nothing", res.ReliableStats)
	}
	if res.ReliableStats.Acks == 0 {
		t.Fatalf("reliable stats %+v: no acks — circuits never closed", res.ReliableStats)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge after heal; final rel err %v", res.RelErr)
	}
	if res.ConvergedAt <= cfg.Fault.PartitionTo {
		t.Fatalf("ConvergedAt %v inside the partition window", res.ConvergedAt)
	}
}
