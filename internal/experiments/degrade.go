package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/search"
	"p2prank/internal/serve"
)

// degradeBench is the deterministic half of the degraded-serving
// experiment: the serveBench crawl and query plan, served through a
// SECOND frontend whose shard health comes from the fault lattice and
// whose admission controller sheds on staleness. The bench's "clock"
// is the query index — the partition window, staleness ticks, and
// publish cadence are all expressed in queries, so every outcome
// (which queries shed, which degrade, their coverage and rank error)
// is reproducible. Only latency percentiles and QPS depend on the
// clock Run is given, like the serve experiment.
//
// The storm's schedule, for Q queries:
//
//	tick (every Q/16 queries): every shard's staleness +1
//	publish (every Q/8, offset Q/16): republish all shards, staleness 0
//	partition window [Q/4, Q/2): PartitionFrac of the shards become
//	    unreachable AND publishing is suspended — the rankers behind
//	    the cut cannot make progress, so staleness climbs past the
//	    admission bound and the frontend starts shedding
//	heal at Q/2: shards reachable again, but the first post-heal
//	    publish only lands at 9Q/16 — the gap is the recovery time the
//	    row reports
//
// Stragglers (StraggleFrac of the shards) are slow for the whole storm:
// every query touching one hedges to the replica snapshot.
type degradeBench struct {
	*serveBench

	deg  *serve.Frontend
	dq   *serve.Querier
	base *serve.Querier

	qi      atomic.Int64 // health clock: index of the query being served
	winFrom int
	winTo   int

	// row collects the outcome as the storm runs; MeanCoverage and
	// RankErr hold sums until Run divides them.
	row      DegradeRow
	rankErrN int64

	full search.Response // scratch for the ground-truth serve
}

// degradeStalenessBound is the admission staleness bound, in rounds:
// the bench publishes every second tick, so the checkpoint-cadence
// guarantee is 2·Every−1 = 3 rounds. Staleness beyond that means the
// publishers have stalled and load should be refused.
const degradeStalenessBound = 3

// newDegradeBench builds the degraded tier next to the baseline one.
// partFrac is the fraction of shards cut off during the partition
// window, stragFrac the fraction hedging all storm long. The schedule
// needs at least minStormQueries queries, which Run checks.
func newDegradeBench(w Workload, k, queries int, partFrac, stragFrac float64) (*degradeBench, error) {
	sb, err := newServeBench(w, k, queries)
	if err != nil {
		return nil, err
	}
	b := &degradeBench{
		serveBench: sb,
		winFrom:    queries / 4,
		winTo:      queries / 2,
		row: DegradeRow{
			K: k, Pages: sb.Pages, PartitionFrac: partFrac, StraggleFrac: stragFrac,
			RecoveryQueries: -1,
		},
	}

	// The health source is the same fault lattice the injectors cut
	// from, on the query-index axis. The frontend sits on a majority
	// node, so the minority side is what drops out of its fan-outs.
	fcfg := dprcore.FaultConfig{
		PartitionFrac: partFrac,
		PartitionFrom: float64(b.winFrom),
		PartitionTo:   float64(b.winTo),
		StraggleFrac:  stragFrac,
		Seed:          w.Seed,
	}
	if stragFrac > 0 {
		fcfg.StraggleFactor = 1
	}
	health, err := serve.NewLatticeHealth(fcfg, fcfg.MajorityNode(k), func() float64 { return float64(b.qi.Load()) })
	if err != nil {
		return nil, err
	}
	deg, err := serve.NewFrontendFrom(sb.tm, sb.ov, sb.assign, sb.store, serve.Config{
		Text:      sb.text,
		Health:    health,
		Admission: serve.Admission{StalenessBound: degradeStalenessBound},
	})
	if err != nil {
		return nil, err
	}
	b.deg = deg
	b.dq = deg.NewQuerier()
	// Ground truth: the serve bench's own health-free frontend over the
	// same snapshots, so degraded answers are scored against what the
	// full fan-out would have returned at the same instant. Its cache
	// is keyed by store version: a hit returns what a scan would.
	b.base = sb.fe.NewQuerier()
	return b, nil
}

// degradeStorm is one degrade cell: the storm over K rankers under one
// fault mix.
func degradeStorm(x *env, c faultMix) (DegradeRow, error) {
	x.logf("degrade K=%d queries=%d partition=%.0f%% stragglers=%.0f%%...", x.K, x.Queries, 100*c.part, 100*c.strag)
	b, err := newDegradeBench(ScaleWorkload(x.K, x.Seed), x.K, x.Queries, c.part, c.strag)
	if err != nil {
		return DegradeRow{}, err
	}
	return b.Run(x.Meter.Clock, x.QPS, x.TopK)
}

// Run drives the whole storm on clock, paced at qps when it is
// positive, topk results per query.
func (b *degradeBench) Run(clock serve.Clock, qps, topk int) (DegradeRow, error) {
	var (
		resp search.Response
		req  search.Request
	)
	st, err := serve.Storm{
		Clock: clock, Queries: len(b.queries), QPS: qps,
		Serve: func(i int) error {
			req = b.queries[i]
			req.K = topk
			return b.dq.Serve(req, &resp)
		},
		After: func(i int, _ time.Duration, err error) error {
			if err := b.record(i, req, &resp, err); err != nil {
				return fmt.Errorf("degrade K=%d query %v: %w", b.K, req.Terms, err)
			}
			if i+1 < len(b.queries) {
				return b.advance(i + 1)
			}
			return nil
		},
	}.Run()
	if err != nil {
		return DegradeRow{}, err
	}
	row := b.row
	row.Queries = int64(st.Sent)
	row.ShedRate = float64(row.Shed) / float64(st.Sent)
	row.Hedged = b.deg.DegradeStats().Hedged
	if row.Degraded > 0 {
		row.MeanCoverage /= float64(row.Degraded)
	}
	if b.rankErrN > 0 {
		row.RankErr /= float64(b.rankErrN)
	}
	row.AchievedQPS, row.P50Micros, row.P99Micros, row.WallSeconds = st.QPS, st.P50Micros, st.P99Micros, st.WallSeconds
	return row, nil
}

// advance runs the schedule up to query i, ahead of serving it. Query
// 0 needs none: the clock starts there and nothing is due.
func (b *degradeBench) advance(i int) error {
	b.qi.Store(int64(i))
	q := len(b.queries)
	if tick := q / 16; tick > 0 && i > 0 && i%tick == 0 {
		b.Tick()
	}
	pub := q / 8
	frozen := b.row.PartitionFrac > 0 && i >= b.winFrom && i < b.winTo
	if pub > 0 && i%pub == pub/2 && !frozen {
		return b.Republish()
	}
	return nil
}

// record classifies query i's outcome: sheds are counted (and their
// error swallowed), degraded answers are scored against the
// ground-truth fan-out, and the first full-coverage answer after the
// heal pins the recovery time. Any other error ends the storm.
func (b *degradeBench) record(i int, req search.Request, resp *search.Response, err error) error {
	if err != nil {
		if errors.Is(err, search.ErrOverloaded) {
			b.row.Shed++
			return nil
		}
		// A query whose every planned shard is behind the cut has
		// nothing to serve from: zero coverage is an error, not a
		// partial answer.
		if errors.Is(err, search.ErrStaleIndex) && i >= b.winFrom && i < b.winTo {
			b.row.Unavailable++
			return nil
		}
		return err
	}
	b.row.Answered++
	if resp.Degraded {
		b.row.Degraded++
		b.row.MeanCoverage += resp.Coverage
		if e, ok := b.rankErr(req, resp); ok {
			b.row.RankErr += e
			b.rankErrN++
		}
	}
	if b.row.RecoveryQueries < 0 && i >= b.winTo && !resp.Degraded && resp.Coverage == 1 {
		b.row.RecoveryQueries = int64(i - b.winTo)
	}
	return nil
}

// rankErr is the recall loss of a degraded answer: the fraction of the
// ground-truth top-k pages the partial fan-out failed to return.
// Queries whose ground truth is empty carry no signal and are skipped.
func (b *degradeBench) rankErr(req search.Request, resp *search.Response) (float64, bool) {
	if err := b.base.Serve(req, &b.full); err != nil {
		return 0, false
	}
	if len(b.full.Postings) == 0 {
		return 0, false
	}
	got := make(map[int32]bool, len(resp.Postings))
	for _, p := range resp.Postings {
		got[p.Page] = true
	}
	hit := 0
	for _, p := range b.full.Postings {
		if got[p.Page] {
			hit++
		}
	}
	return 1 - float64(hit)/float64(len(b.full.Postings)), true
}

// DegradeRow is one (partition span, straggler fraction) cell of the
// degrade sweep. The wall-clock fields are whatever the injected clock
// measured.
type DegradeRow struct {
	K       int `tab:"K"`
	Pages   int
	Queries int64

	PartitionFrac float64 `tab:"part" pct:"%.0f%%"`
	StraggleFrac  float64 `tab:"strag" pct:"%.0f%%"`

	// Answered, Shed, and Unavailable partition the storm; ShedRate =
	// Shed/Queries. Unavailable counts queries whose every planned
	// shard was behind the cut (zero possible coverage).
	Answered    int64   `tab:"answered"`
	Shed        int64   `tab:"shed"`
	ShedRate    float64 `tab:"" pct:" (%.0f%%)"`
	Unavailable int64   `tab:"unavail"`
	// Degraded counts partial-coverage answers; MeanCoverage averages
	// their reported shard coverage.
	Degraded     int64   `tab:"degraded"`
	MeanCoverage float64 `tab:"coverage" fmt:"%.2f"`
	// RankErr is the mean recall loss of degraded answers against the
	// full fan-out at the same instant.
	RankErr float64 `tab:"rank err" fmt:"%.3f"`
	// Hedged counts replica reads for slow shards.
	Hedged int64 `tab:"hedged"`
	// RecoveryQueries is how many queries after the heal the frontend
	// took to serve its first full-coverage answer again (-1 if never).
	RecoveryQueries int64 `tab:"recovery" fmt:"%dq" neg:"-"`

	AchievedQPS float64 `tab:"QPS" fmt:"%.0f"`
	P50Micros   float64 `tab:"p50" fmt:"%.0fµs"`
	P99Micros   float64 `tab:"p99" fmt:"%.0fµs"`
	WallSeconds float64
}
