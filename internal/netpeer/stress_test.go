package netpeer

import (
	"sync"
	"testing"
	"time"

	"p2prank/internal/dprcore"
)

// TestStressPeerStopUnderLoad is the CI race-detector stress test: a
// cluster ranks under indirect transmission (so peers relay each
// other's frames, the concurrency-heavy path), a reader goroutine
// hammers the snapshot APIs, one peer is torn down mid-run, and the
// survivors must keep iterating and still drive the global error down.
// Run it under -race; its value is the interleavings it provokes, not
// the final numbers.
func TestStressPeerStopUnderLoad(t *testing.T) {
	g := genGraph(t, 900, 11)
	cl, err := StartCluster(g, ClusterConfig{
		Params:   dprcore.Params{Alg: dprcore.DPR1},
		K:        5,
		MeanWait: 5 * time.Millisecond,
		Indirect: true,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Reader goroutine: concurrent snapshots race against the rank
	// loops and read loops of every peer.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			for _, p := range cl.Peers {
				_ = p.Ranks()
				_ = p.Loops()
				_ = p.ChunksSent()
				_ = p.ChunksRelayed()
			}
			_ = cl.RelErr()
		}
	}()

	// Let traffic build up, then kill a middle peer while its relays
	// are in flight.
	time.Sleep(150 * time.Millisecond)
	errBefore := cl.RelErr()
	if err := cl.Peers[2].Close(); err != nil {
		t.Fatalf("closing peer 2: %v", err)
	}

	loopsBefore := make([]int64, len(cl.Peers))
	for i, p := range cl.Peers {
		loopsBefore[i] = p.Loops()
	}
	time.Sleep(400 * time.Millisecond)
	close(stopReads)
	readers.Wait()

	for i, p := range cl.Peers {
		if i == 2 {
			continue
		}
		if p.Loops() <= loopsBefore[i] {
			t.Errorf("peer %d stalled after peer 2 stopped", i)
		}
	}
	// Convergence proper is asserted by the functional tests; here the
	// survivors only need to have kept making progress toward R*
	// without the dead relay.
	if errAfter := cl.RelErr(); errAfter > errBefore {
		t.Errorf("relative error rose after peer stop: %v -> %v", errBefore, errAfter)
	}
}

// TestStressCloseDuringDial tears clusters down immediately after
// start, racing Close against lazy dials, accept loops, and the first
// rank iterations.
func TestStressCloseDuringDial(t *testing.T) {
	g := genGraph(t, 400, 13)
	for i := 0; i < 3; i++ {
		cl, err := StartCluster(g, ClusterConfig{
			Params:   dprcore.Params{Alg: dprcore.DPR2},
			K:        4,
			MeanWait: time.Millisecond,
			Seed:     uint64(17 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i*10) * time.Millisecond)
		cl.Close()
	}
}

// TestStressCloseUnderLoad starts and closes a ranking 8-peer indirect
// cluster five hundred times. Peers close in order while the rest are
// still dialing and relaying, so some acceptLoop is always handing a
// fresh connection to a readLoop as its peer closes; a connection
// registered after Close has swept the accepted set is closed by nobody
// local, and Close then waits on a remote peer that Cluster.Close has
// not reached yet. Every close gets a deadline.
func TestStressCloseUnderLoad(t *testing.T) {
	g := genGraph(t, 800, 19)
	for i := 0; i < 500; i++ {
		cl, err := StartCluster(g, ClusterConfig{
			Params:   dprcore.Params{Alg: dprcore.DPR2},
			K:        8,
			MeanWait: time.Millisecond,
			Indirect: true,
			Seed:     uint64(1 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%8) * 500 * time.Microsecond)
		done := make(chan struct{})
		go func() {
			cl.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("close %d still blocked after 10 s", i)
		}
	}
}
