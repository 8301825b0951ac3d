package experiments

import (
	"fmt"
	"slices"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/vecmath"
	"p2prank/internal/xrand"
)

// serveBench is the deterministic half of the serving experiment: a
// ranked crawl sharded over K rankers, snapshots published through the
// real checkpoint seam (EncodeRankSnapshot → Publisher.Save), and a
// pre-drawn query workload. Run times the query storm on whatever
// serve.Clock the command injects: this package is in the nowallclock
// analyzer's scope, like the rest of the simulation path.
type serveBench struct {
	K     int
	Pages int

	fe     *serve.Frontend
	store  *serve.Store
	pub    *serve.Publisher
	assign *partition.Assignment
	ranks  vecmath.Vec
	ov     overlay.Network
	text   search.Config
	tm     *search.TermMatrix // the crawl's text, drawn once for every frontend

	queries []search.Request
	terms   []int32 // backing array for all query term slices
	round   int64
	encBuf  []byte
	scores  []float64
}

// newServeBench ranks the workload centrally (the serving tier is
// downstream of ranking; how the ranks were computed is irrelevant to
// query cost), builds the overlay and hash partition, publishes every
// shard at round 1 through the checkpoint seam, and pre-draws queries:
// 1–3 terms each, term popularity skewed quartically toward the low
// vocabulary ids so the cache has something to hit.
func newServeBench(w Workload, k, queries int) (*serveBench, error) {
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	res, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		return nil, err
	}
	ov, err := dprcore.Ring(k)
	if err != nil {
		return nil, err
	}
	assign, err := partition.Assign(g, ov, partition.ByPage, w.Seed)
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(k)
	if err != nil {
		return nil, err
	}
	text := search.DefaultConfig()
	// Keep per-term posting lists (and so shards-per-query) roughly
	// constant as the crawl scales.
	text.Vocabulary = max(text.Vocabulary, w.Pages/40)
	b := &serveBench{
		K:      k,
		Pages:  w.Pages,
		store:  store,
		pub:    serve.NewPublisher(store, nil),
		assign: assign,
		ranks:  res.Ranks,
		ov:     ov,
		text:   text,
	}
	if err := b.Republish(); err != nil {
		return nil, err
	}
	if b.tm, err = search.DrawTerms(g, text); err != nil {
		return nil, err
	}
	if b.fe, err = serve.NewFrontendFrom(b.tm, ov, assign, store, serve.Config{Text: text}); err != nil {
		return nil, err
	}

	rng := xrand.New(w.Seed ^ 0x5e12e)
	b.terms = make([]int32, 0, queries*2)
	b.queries = make([]search.Request, queries)
	for i := range b.queries {
		n := 1 + rng.Intn(3)
		start := len(b.terms)
		for len(b.terms)-start < n {
			f := rng.Float64()
			f *= f
			if t := int32(f * f * float64(text.Vocabulary)); !slices.Contains(b.terms[start:], t) { // quartic skew toward low ids
				b.terms = append(b.terms, t)
			}
		}
		b.queries[i] = search.Request{Terms: b.terms[start:len(b.terms):len(b.terms)], K: 10}
	}
	return b, nil
}

// serveStorm is one serve cell: the query plan as one storm over K
// rankers' snapshots. The first cell's frontend is then served to
// outside clients when the Meter can Expose it.
func serveStorm(x *env, k int) (ServeRow, error) {
	x.logf("serve K=%d queries=%d...", k, x.Queries)
	b, err := newServeBench(ScaleWorkload(k, x.Seed), k, x.Queries)
	if err != nil {
		return ServeRow{}, err
	}
	row, err := b.Run(x.Meter.Clock, x.QPS, x.TopK)
	if err == nil && k == x.Ks[0] && x.Meter.Expose != nil {
		err = x.Meter.Expose(b.fe, x.TopK)
	}
	return row, err
}

// Tick advances every shard's staleness clock by one round, standing in
// for the rankers' ComputeEnd hooks.
func (b *serveBench) Tick() {
	for s := 0; s < b.K; s++ {
		b.store.Advance(s)
	}
}

// Republish pushes every shard's rank slice at the next round through
// the DPRS checkpoint encoding — the same bytes a ranker's
// Checkpoint.Sink would carry — resetting staleness and minting K new
// versions.
func (b *serveBench) Republish() error {
	b.round++
	for s := 0; s < b.K; s++ {
		b.scores = b.scores[:0]
		for _, p := range b.assign.Pages[s] {
			b.scores = append(b.scores, b.ranks[p])
		}
		b.encBuf = dprcore.EncodeRankSnapshot(b.encBuf[:0], s, b.round, b.scores)
		if err := b.pub.Save(s, b.round, b.encBuf); err != nil {
			return fmt.Errorf("experiments: republish shard %d: %w", s, err)
		}
	}
	return nil
}

// ServeRow is one K of the serving sweep. The wall-clock fields are
// whatever the injected clock measured.
type ServeRow struct {
	K       int   `tab:"K"`
	Pages   int   `tab:"pages"`
	Queries int64 `tab:"queries"`
	// Results is the total postings returned; a zero total would mean
	// the sweep measured empty intersections.
	Results int64
	// CacheHits and CacheMisses are the frontend cache's counters,
	// HitRate the hits' share of both.
	CacheHits   int64
	CacheMisses int64
	HitRate     float64 `tab:"hit rate" pct:"%.0f%%"`
	// MeanShards and MeanHops are per-query averages from the Cost
	// accounting: partial-result fan-out and overlay distance.
	MeanShards float64 `tab:"shards/q" fmt:"%.1f"`
	MeanHops   float64 `tab:"hops/q" fmt:"%.1f"`
	// MaxStaleness is the worst served staleness observed.
	MaxStaleness int64 `tab:"max stale"`

	AchievedQPS float64 `tab:"QPS" fmt:"%.0f"`
	P50Micros   float64 `tab:"p50" fmt:"%.0fµs"`
	P99Micros   float64 `tab:"p99" fmt:"%.0fµs"`
	WallSeconds float64 `tab:"wall" fmt:"%.1fs"`
}

// Run drives the whole query plan as one storm on clock — paced at qps
// when it is positive, topk results per query — with a mid-storm
// staleness exercise (a tick every eighth of the plan, one republish
// after the fifth) so the reported max staleness reflects a live
// system, not a frozen store.
func (b *serveBench) Run(clock serve.Clock, qps, topk int) (ServeRow, error) {
	var (
		q         = b.fe.NewQuerier()
		resp      search.Response
		row       = ServeRow{K: b.K, Pages: b.Pages}
		shards    int64
		hops      int64
		tickEvery = len(b.queries) / 8
	)
	st, err := serve.Storm{
		Clock: clock, Queries: len(b.queries), QPS: qps,
		Serve: func(i int) error {
			req := b.queries[i]
			req.K = topk
			return q.Serve(req, &resp)
		},
		After: func(i int, _ time.Duration, err error) error {
			if err != nil {
				return fmt.Errorf("serve K=%d query %v: %w", b.K, b.queries[i].Terms, err)
			}
			row.Results += int64(len(resp.Postings))
			shards += int64(resp.Cost.Responses)
			hops += int64(resp.Cost.LookupHops)
			row.MaxStaleness = max(row.MaxStaleness, resp.Staleness)
			if next := i + 1; tickEvery > 0 && next < len(b.queries) && next%tickEvery == 0 {
				b.Tick() // rankers commit a round without publishing
				if next == 5*tickEvery {
					return b.Republish()
				}
			}
			return nil
		},
	}.Run()
	if err != nil {
		return row, err
	}
	row.Queries = int64(st.Sent)
	row.MeanShards = float64(shards) / float64(st.Sent)
	row.MeanHops = float64(hops) / float64(st.Sent)
	row.CacheHits, row.CacheMisses = b.fe.CacheStats()
	if total := row.CacheHits + row.CacheMisses; total > 0 {
		row.HitRate = float64(row.CacheHits) / float64(total)
	}
	row.AchievedQPS, row.P50Micros, row.P99Micros, row.WallSeconds = st.QPS, st.P50Micros, st.P99Micros, st.WallSeconds
	return row, nil
}
