package workload

import (
	"fmt"

	"p2prank/bench/measure"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// tier is a serving tier over one ranked crawl: K shards behind a
// snapshot store, published through the checkpoint seam
// (EncodeRankSnapshot → Publisher.Save, the bytes a ranker's
// checkpoint sink carries), and a query front end over them.
type tier struct {
	g      webgraph.Store
	k      int
	ov     overlay.Network
	assign *partition.Assignment
	text   search.Config
	store  *serve.Store
	pub    *serve.Publisher
	fe     *serve.Frontend
	ranks  vecmath.Vec

	round  int64
	encBuf []byte
	scores []float64
}

// buildTier shards g over k rankers by page hash, so that every ranker
// serves a shard, publishes round 1 and builds the front end over the
// repository's default text model. Each step is a set-up span.
func (r *run) buildTier(g webgraph.Store, k int, ranks vecmath.Vec, cfg serve.Config) (*tier, error) {
	t := &tier{g: g, k: k, ranks: ranks, text: search.DefaultConfig()}
	cfg.Text = t.text
	err := r.prep("pastry", "build", "pastry.build_s", func() (err error) {
		t.ov, err = engine.BuildOverlay(engine.Pastry, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.prep("partition", "assign", "partition.assign_s", func() (err error) {
		t.assign, err = partition.Assign(g, t.ov, partition.ByPage, r.p.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	if t.store, err = serve.NewStore(k); err != nil {
		return nil, err
	}
	t.pub = serve.NewPublisher(t.store, nil)
	if err := r.prep("serve", "publish_first", "", t.republish); err != nil {
		return nil, err
	}
	var before float64
	if r.p.Trace {
		before = measure.HeapMB()
	}
	err = r.prep("serve", "frontend_build", "serve.frontend_build_s", func() (err error) {
		t.fe, err = serve.NewFrontend(g, t.ov, t.assign, t.store, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if r.p.Trace {
		r.layer("serve.index_mb", measure.HeapMB()-before)
	}
	return t, nil
}

// republish pushes every shard's rank slice at the next round through
// the checkpoint encoding: one full K-shard round, minting K versions
// and resetting every shard's staleness.
func (t *tier) republish() error {
	t.round++
	for s := 0; s < t.k; s++ {
		t.scores = t.scores[:0]
		for _, p := range t.assign.Pages[s] {
			t.scores = append(t.scores, t.ranks[p])
		}
		t.encBuf = dprcore.EncodeRankSnapshot(t.encBuf[:0], s, t.round, t.scores)
		if err := t.pub.Save(s, t.round, t.encBuf); err != nil {
			return fmt.Errorf("republish shard %d: %w", s, err)
		}
	}
	return nil
}

// tick makes every shard one committed round staler, standing in for
// the rankers' ComputeEnd hooks.
func (t *tier) tick() {
	for s := 0; s < t.k; s++ {
		t.store.Advance(s)
	}
}
