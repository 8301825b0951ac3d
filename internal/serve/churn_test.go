package serve_test

import (
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

// TestChurnStalenessMonotoneBounded runs the PR 5 churn machinery with
// a Publisher as the checkpoint sink and a Tracker as the observer:
// two rankers crash mid-run and cold-restart, and the served staleness
// must stay within the checkpoint-cadence bound the whole time.
//
// The bound: in steady state a shard is at most Every rounds behind
// (it republishes on every checkpoint). Across a crash/restart the
// rounds committed since the last pre-crash publish carry over, so the
// worst case is (Every-1) leftover + Every fresh = 2*Every - 1.
func TestChurnStalenessMonotoneBounded(t *testing.T) {
	const (
		k     = 8
		every = 3
	)
	gcfg := webgraph.DefaultGenConfig(2500)
	gcfg.Sites = 40
	gcfg.Seed = 5
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := serve.NewStore(k)
	if err != nil {
		t.Fatal(err)
	}
	pub := serve.NewPublisher(store, nil)
	tracker := serve.NewTracker(store, nil)
	cfg := engine.Config{
		Params: dprcore.Params{
			Alg: dprcore.DPR1, T1: 0.5, T2: 3,
			Checkpoint: dprcore.CheckpointConfig{Every: every, Sink: pub},
			Observer:   tracker,
		},
		Graph: g, K: k, Seed: 11, SampleEvery: 5, MaxTime: 300, TargetRelErr: 1e-4,
		Churn: []dprcore.ChurnEvent{
			{Ranker: 2, CrashAt: 20, RestartAt: 35},
			{Ranker: 5, CrashAt: 30, RestartAt: 50},
		},
	}
	res, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("churned run did not converge; rel err %v", res.RelErr)
	}
	bound := int64(2*every - 1)
	if ms := tracker.MaxObservedStaleness(); ms == 0 || ms > bound {
		t.Fatalf("max observed staleness %d outside (0, %d]: staleness not monotone-bounded across crash/restart", ms, bound)
	}
	if ms := store.MaxStaleness(); ms > bound {
		t.Fatalf("final staleness %d exceeds bound %d", ms, bound)
	}
	for s := 0; s < k; s++ {
		if store.Snapshot(s) == nil {
			t.Fatalf("shard %d never published", s)
		}
	}
	if store.Version() < int64(k) {
		t.Fatalf("store version %d after a full run of %d shards", store.Version(), k)
	}

	// The published snapshots are servable end-to-end: rebuild the
	// same deterministic overlay/partition the engine used and query.
	ov, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	text := search.DefaultConfig()
	text.Vocabulary = 500
	text.TermsPerPage = 8
	fe, err := serve.NewFrontend(g, ov, assign, store, serve.Config{Text: text})
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
}
