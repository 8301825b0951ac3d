package engine

import (
	"testing"

	"p2prank/internal/dprcore"
)

// crash takes ranker rk down the way a warm churn event does and
// returns the snapshot its restart restores.
func crash(rk *ranker) []byte {
	snap := rk.loop.Snapshot()
	rk.Crash()
	return snap
}

// TestWarmRestartResumesLoops: a ranker down for a warm outage runs no
// loop while its peers keep going, and comes back counting on from its
// pre-crash loop count, not from 0.
func TestWarmRestartResumesLoops(t *testing.T) {
	g := genGraph(t, 800, 51)
	sim, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR1), 51)
	for _, rk := range rankers {
		rk.Start()
	}
	sim.RunUntil(30)
	rk := rankers[0]
	before := rk.Loops()
	if before == 0 {
		t.Fatal("no loops before the outage")
	}
	snap := crash(rk)
	sim.RunUntil(90)
	if rk.Loops() != before {
		t.Fatalf("crashed ranker looped: %d -> %d", before, rk.Loops())
	}
	// Other rankers keep going.
	if rankers[1].Loops() <= before {
		t.Fatal("peers stalled during the outage")
	}
	if err := rk.Restart(snap); err != nil {
		t.Fatal(err)
	}
	if rk.Loops() != before {
		t.Fatalf("warm restart resumed at loop %d, want %d", rk.Loops(), before)
	}
	sim.RunUntil(150)
	if rk.Loops() <= before {
		t.Fatal("restarted ranker never looped again")
	}
	for _, r := range rankers {
		r.Stop()
	}
}

// TestWarmRestartWithoutCrashRefused: restarting a ranker that is up
// is refused and must not start a second wakeup chain.
func TestWarmRestartWithoutCrashRefused(t *testing.T) {
	g := genGraph(t, 400, 53)
	sim, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR2), 53)
	rk := rankers[0]
	rk.Start()
	if err := rk.Restart(rk.loop.Snapshot()); err == nil {
		t.Fatal("Restart of a running ranker accepted")
	}
	sim.RunUntil(30)
	// MeanWait=3 over 30 units → ~10 loops; double-scheduling would
	// give ~20. Allow generous slack for Exp variance.
	if l := rk.Loops(); l > 22 {
		t.Fatalf("suspicious loop count %d after a refused Restart", l)
	}
	rk.Stop()
}

// TestWarmCrashBeforeStart: a ranker that crashes before it starts
// runs nothing until its warm restart, then ranks.
func TestWarmCrashBeforeStart(t *testing.T) {
	g := genGraph(t, 400, 55)
	sim, rankers, _ := simCluster(t, g, 4, baseParams(dprcore.DPR1), 55)
	rk := rankers[0]
	snap := crash(rk)
	rk.Start()
	sim.RunUntil(40)
	if rk.Loops() != 0 {
		t.Fatalf("ranker crashed before Start still looped %d times", rk.Loops())
	}
	if err := rk.Restart(snap); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(80)
	if rk.Loops() == 0 {
		t.Fatal("ranker never recovered")
	}
	rk.Stop()
}
