package workload

import (
	"fmt"
	"os"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/netpeer"
	"p2prank/internal/partition"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// The live workload: 40k pages over 8 TCP peers on loopback,
// hash-by-page, DPR2 with a 5 ms mean pause, indirect transmission on
// the default (gob) wire.
const (
	livePages    = 40000
	liveK        = 8
	liveTarget   = 1e-6
	liveTimeout  = 2 * time.Minute
	liveMeanWait = 5 * time.Millisecond
	livePoll     = 500 * time.Microsecond
	liveErrEvery = 25 * time.Millisecond

	liveCloseTimeout = 3 * time.Second

	// wall_s is the time from StartCluster's return until the peers
	// have completed liveRounds rounds between them: one slice, because
	// on two saturated cores the goroutine that watches the peers is
	// itself scheduled too irregularly to time parts of it (and
	// Peer.Loops waits for the lock a computing peer holds). A repeat
	// starts liveClusters clusters one after another, each one
	// repetition of the timed phase and one more sample of StartCluster
	// for setup_s.
	liveRounds   = 600
	liveClusters = 7
)

var liveParams = dprcore.Params{Alg: dprcore.DPR2}

func runLive(r *run) error {
	g, err := r.generate(livePages, 100, r.p.Seed)
	if err != nil {
		return err
	}
	for c := 0; c < liveClusters; c++ {
		cfg := netpeer.ClusterConfig{
			Params:   liveParams,
			K:        liveK,
			Strategy: partition.ByPage,
			MeanWait: liveMeanWait,
			Indirect: true,
			Seed:     scheduleSeed,
		}
		var obs *computeObserver
		if r.p.Trace {
			obs = newComputeObserver(liveK, r.rec)
			cfg.Observer = obs
		}
		var cl *netpeer.Cluster
		err = r.prep("netpeer", "start_cluster", "netpeer.start_cluster_s", func() (err error) {
			cl, err = netpeer.StartCluster(g, cfg)
			return err
		})
		if err != nil {
			return err
		}
		// One row of setup_s per cluster: the crawl's step, shared, and
		// this cluster's start.
		r.setupRow()
		r.setup = r.setup[:1]
		ok := r.timeCluster(cl, obs, g, c == liveClusters-1)
		if !closeCluster(cl) {
			// Peers of a cluster that did not close may still be running;
			// another cluster beside them would not be timed alone.
			fmt.Fprintln(os.Stderr, "live_tcp: Cluster.Close did not return; ending the repeat after", c+1, "clusters")
			break
		}
		if !ok {
			break // it timed out, and the repeat has no time for another
		}
	}
	return nil
}

// timeCluster times a started cluster to liveRounds rounds. The
// repeat's last cluster is then left running until it has converged,
// and is the one the per-layer metrics describe. It reports whether
// the cluster got there within liveTimeout.
func (r *run) timeCluster(cl *netpeer.Cluster, obs *computeObserver, g *webgraph.Graph, last bool) bool {
	totalLoops := func() (n int64) {
		for i := 0; i < liveK; i++ {
			n += cl.Peer(i).Loops()
		}
		return n
	}
	runSpan := r.rec.Begin(r.root, "netpeer", "rank")
	t0 := time.Now()
	var wall, converged, nextErrCheck time.Duration
	// The time to a relative error of 1e-6, the number a user waits
	// for, depends on the asynchronous schedule by a factor of two from
	// seed to seed, so it is checked and reported per layer
	// (netpeer.converge_s), not held to a bound. The check assembles
	// every peer's ranks, so it runs once the rounds are timed.
	for time.Since(t0) < liveTimeout && (wall == 0 || (last && converged == 0)) {
		now := time.Since(t0)
		if wall == 0 {
			if totalLoops() >= liveRounds {
				wall = now
			}
		} else if now >= nextErrCheck {
			if cl.RelErr() <= liveTarget {
				converged = time.Since(t0)
			}
			nextErrCheck = time.Since(t0) + liveErrEvery
		}
		time.Sleep(livePoll)
	}
	window := time.Since(t0)
	r.res.MeasuredS += wall.Seconds()
	r.res.Attempted++
	loops := totalLoops()
	if !r.check(wall > 0, "live cluster completed %d rounds in %v, want %d", loops, liveTimeout, liveRounds) {
		return false
	}
	r.wall(wall.Seconds())
	if !last {
		r.rec.End(runSpan, loops)
		return true
	}

	var sent, relayed int64
	for i := 0; i < liveK; i++ {
		sent += cl.Peer(i).ChunksSent()
		relayed += cl.Peer(i).ChunksRelayed()
	}
	r.rec.End(runSpan, loops)
	ok := r.check(converged > 0, "live cluster did not reach relative error %v within %v", liveTarget, liveTimeout)
	r.check(vecmath.Dominates(cl.Reference, cl.Assemble(), 1e-9), "a live rank exceeds the centralized fixed point (Thm 4.2)")
	r.layer("netpeer.converge_s", converged.Seconds())
	r.layer("netpeer.loops", float64(loops))
	r.layer("netpeer.chunks_sent", float64(sent))
	r.layer("netpeer.chunks_relayed", float64(relayed))
	r.layer("netpeer.loop_ms", window.Seconds()*1e3*liveK/float64(max(loops, 1)))
	if r.p.Trace {
		obs.report(r, runSpan, "compute+runnable_wait", r.layer)
		// StartCluster computes the centralized reference inside; the
		// replay times the same solve on its own.
		r.replayRanking(g, liveK, partition.ByPage, liveParams, 0, false)
	}
	return ok
}

// closeCluster closes the cluster and reports whether it closed
// within liveCloseTimeout. Cluster.Close, called while the peers are
// still sending, can wait for ever on the reader of a connection that
// a closing peer accepted after it had closed the ones it knew; the
// benchmark must not hang with it.
func closeCluster(cl *netpeer.Cluster) bool {
	done := make(chan struct{})
	go func() {
		cl.Close()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(liveCloseTimeout):
		return false
	}
}
