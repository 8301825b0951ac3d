package serve_test

import (
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/netpeer"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

// TestChurnStalenessMonotoneBounded runs one churn schedule through
// both drivers — the simulator and the live TCP cluster — with a
// Publisher as the checkpoint sink and a Tracker as the observer, the
// way every serving tier is fed: two rankers crash mid-run and
// cold-restart, and the served staleness must stay within the
// checkpoint-cadence bound the whole time, on either driver.
//
// The bound: in steady state a shard is at most Every rounds behind
// (it republishes on every checkpoint). Across a crash/restart the
// rounds committed since the last pre-crash publish carry over, so the
// worst case is (Every-1) leftover + Every fresh = 2*Every - 1.
func TestChurnStalenessMonotoneBounded(t *testing.T) {
	const (
		k     = 8
		every = 3
		bound = 2*every - 1
	)
	gcfg := webgraph.DefaultGenConfig(2500)
	gcfg.Sites = 40
	gcfg.Seed = 5
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	// churn is the schedule in units of each driver's clock: virtual
	// time in-sim, nanoseconds live.
	churn := func(unit float64) []dprcore.ChurnEvent {
		return []dprcore.ChurnEvent{
			{Ranker: 2, CrashAt: 20 * unit, RestartAt: 35 * unit},
			{Ranker: 5, CrashAt: 30 * unit, RestartAt: 50 * unit},
		}
	}
	// seam builds a fresh store and the parameters that feed it.
	seam := func() (*serve.Store, *serve.Tracker, dprcore.Params) {
		store, err := serve.NewStore(k)
		if err != nil {
			t.Fatal(err)
		}
		tracker := serve.NewTracker(store, nil)
		return store, tracker, dprcore.Params{
			Alg:        dprcore.DPR1,
			Checkpoint: dprcore.CheckpointConfig{Every: every, Sink: serve.NewPublisher(store, nil)},
			Observer:   tracker,
		}
	}
	check := func(driver string, store *serve.Store, tracker *serve.Tracker) {
		t.Helper()
		ms := tracker.MaxObservedStaleness()
		if ms == 0 || ms > bound {
			t.Fatalf("%s: max observed staleness %d outside (0, %d]: staleness not monotone-bounded across crash/restart", driver, ms, bound)
		}
		t.Logf("%s: max observed staleness %d of bound %d", driver, ms, bound)
		if ms := store.MaxStaleness(); ms > bound {
			t.Fatalf("%s: final staleness %d exceeds bound %d", driver, ms, bound)
		}
		for s := 0; s < k; s++ {
			if store.Snapshot(s) == nil {
				t.Fatalf("%s: shard %d never published", driver, s)
			}
		}
		if store.Version() < int64(k) {
			t.Fatalf("%s: store version %d after a full run of %d shards", driver, store.Version(), k)
		}
	}

	// The simulator.
	store, tracker, params := seam()
	params.T1, params.T2 = 0.5, 3
	res, err := engine.Run(engine.Config{
		Params: params, Graph: g, K: k, Seed: 11, SampleEvery: 5, MaxTime: 300, TargetRelErr: 1e-4,
		Churn: churn(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("churned run did not converge; rel err %v", res.RelErr)
	}
	check("engine", store, tracker)

	// The published snapshots are servable end-to-end, over the ring
	// and partition the run deployed.
	text := search.DefaultConfig()
	text.Vocabulary = 500
	text.TermsPerPage = 8
	fe, err := serve.NewFrontend(g, res.Deployment.Ring, res.Deployment.Assign, store, serve.Config{Text: text})
	if err != nil {
		t.Fatal(err)
	}
	var resp search.Response
	if err := fe.NewQuerier().Serve(search.Request{Terms: []int32{0}, K: 10, MinVersion: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Postings) == 0 {
		t.Fatal("no results served from churned-run snapshots")
	}
	if resp.Staleness > bound {
		t.Fatalf("served staleness %d exceeds bound %d", resp.Staleness, bound)
	}
	for i := 1; i < len(resp.Postings); i++ {
		a, b := resp.Postings[i-1], resp.Postings[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Page > b.Page) {
			t.Fatalf("results out of order at %d: %+v then %+v", i, a, b)
		}
	}

	// The live cluster: the same schedule on a 2 ms unit, so both
	// victims are back before the run converges.
	store, tracker, params = seam()
	cl, err := netpeer.StartCluster(g, netpeer.ClusterConfig{
		Params: params, K: k, MeanWait: 10 * time.Millisecond, Seed: 11,
		Churn: churn(float64(2 * time.Millisecond)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first := make(map[int]*netpeer.Peer)
	for _, ev := range churn(1) {
		first[ev.Ranker] = cl.Peer(ev.Ranker)
	}
	for _, ev := range churn(1) {
		for deadline := time.Now().Add(15 * time.Second); cl.Peer(ev.Ranker) == first[ev.Ranker]; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("live: ranker %d not restarted in 15s", ev.Ranker)
			}
		}
	}
	if _, err := cl.Converge(1e-8, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	check("live", store, tracker)
}
