package netpeer

import (
	"testing"
	"time"

	"p2prank/internal/dprcore"
)

// TestClusterConvergesUnderFaultDrops runs a live cluster with the
// shared dprcore fault injector dropping 30% of all score chunks below
// the algorithm, and checks the peers still converge — the same loss
// tolerance the simulator's fault test demonstrates, here over real
// sockets.
func TestClusterConvergesUnderFaultDrops(t *testing.T) {
	g := genGraph(t, 1200, 1)
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{Alg: dprcore.DPR1, Fault: dprcore.FaultConfig{DropProb: 0.3}},
		K:      4, MeanWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rec, err := cl.Converge(1e-6, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FaultStats.Dropped == 0 {
		t.Fatal("no chunks dropped across the cluster")
	}
}

// TestClusterConvergesUnderDelayAndDup exercises the wall-clock delay
// path (dprcore's Clock implemented by netpeer's wallClock) and
// duplicate suppression by round tracking.
func TestClusterConvergesUnderDelayAndDup(t *testing.T) {
	g := genGraph(t, 1000, 3)
	cl, err := StartCluster(g, ClusterConfig{
		Params: dprcore.Params{Alg: dprcore.DPR1, Fault: dprcore.FaultConfig{
			DelayProb: 0.25,
			MeanDelay: float64(20 * time.Millisecond),
			DupProb:   0.25,
		}},
		K: 3, MeanWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rec, err := cl.Converge(1e-6, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s := rec.FaultStats; s.Delayed == 0 || s.Duplicated == 0 {
		t.Fatalf("fault injector idle: delayed=%d duplicated=%d", s.Delayed, s.Duplicated)
	}
}
