package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2prank/bench/measure"
	"p2prank/internal/dprcore"
	"p2prank/internal/metrics"
	"p2prank/internal/pagerank"
	"p2prank/internal/search"
	"p2prank/internal/serve"
)

// serveFn answers plan query i. The paced and closed loops time this
// call and nothing else.
type serveFn func(i int, req search.Request, resp *search.Response) error

// outcome classifies what serveFn returned for query i: answered,
// refused as the workload's schedule says it must be (a shed inside
// the staleness window, an all-shards-unreachable answer inside the
// partition window), or failed.
type outcome int

const (
	answered outcome = iota
	refused
	failed
)

// loopStats is what one closed or paced loop counted.
type loopStats struct {
	attempted, answered, refused, failed int64

	shards, hops, empty int64 // Cost sums over answered queries
	degraded, hedged    int64
	coverage            float64 // summed over degraded answers
	maxStale            int64
	backwards           int64 // same query answered from an older version than before
}

func (a *loopStats) add(b *loopStats) {
	a.attempted += b.attempted
	a.answered += b.answered
	a.refused += b.refused
	a.failed += b.failed
	a.shards += b.shards
	a.hops += b.hops
	a.empty += b.empty
	a.degraded += b.degraded
	a.hedged += b.hedged
	a.coverage += b.coverage
	a.backwards += b.backwards
	if b.maxStale > a.maxStale {
		a.maxStale = b.maxStale
	}
}

// tally folds the outcome of plan query i into the stats. lastV
// remembers the version each plan query was last answered at: the same
// query reads the same shards, so its version may never go backwards.
func (st *loopStats) tally(o outcome, i int, resp *search.Response, lastV []int64) {
	st.attempted++
	switch o {
	case refused:
		st.refused++
		return
	case failed:
		st.failed++
		return
	}
	st.answered++
	st.shards += int64(resp.Cost.Responses)
	st.hops += int64(resp.Cost.LookupHops)
	if resp.Cost.Responses == 0 {
		st.empty++
	}
	if resp.Degraded {
		st.degraded++
		st.coverage += resp.Coverage
	}
	st.hedged += int64(resp.Hedged)
	if resp.Staleness > st.maxStale {
		st.maxStale = resp.Staleness
	}
	if resp.Version < lastV[i] {
		st.backwards++
	}
	lastV[i] = resp.Version
}

// closedLoop serves reqs once, in order, each query sent when the
// previous one has returned, and folds what it sees into st. It times
// the pass in slices of `slice` queries (the last one takes the
// remainder) and returns the seconds each took, scaled by `scale`.
// lastV is the caller's per-query version memory, kept across passes
// (see tally). When lat is non-nil (the traced run) every query is
// timed into it as well.
func closedLoop(reqs []search.Request, slice int, scale float64, serve serveFn, classify func(i int, err error) outcome, st *loopStats, lastV []int64, lat *[]float64) []float64 {
	var resp search.Response
	slices := make([]float64, 0, (len(reqs)+slice-1)/slice)
	mark := time.Now()
	for i := range reqs {
		var t0 time.Time
		if lat != nil {
			t0 = time.Now()
		}
		err := serve(i, reqs[i], &resp)
		if lat != nil {
			*lat = append(*lat, float64(time.Since(t0)))
		}
		st.tally(classify(i, err), i, &resp, lastV)
		if (i+1)%slice == 0 || i == len(reqs)-1 {
			now := time.Now()
			slices = append(slices, now.Sub(mark).Seconds()*scale)
			mark = now
		}
	}
	return slices
}

// pacedLoop serves reqs once on an open-loop schedule of ratePerS
// queries a second. Latency runs from each query's due time and is
// kept, in arrival order, for answered queries only; lateNs is the
// worst delay the generator itself added.
func pacedLoop(reqs []search.Request, ratePerS float64, serve serveFn, classify func(i int, err error) outcome) (st loopStats, lat []float64, lateNs int64) {
	var (
		resp  search.Response
		lastV = make([]int64, len(reqs))
		base  = time.Now()
		now   = func() int64 { return int64(time.Since(base)) }
	)
	lat = make([]float64, 0, len(reqs))
	pc := measure.NewPacer(now, int64(1e9/ratePerS))
	for i := range reqs {
		due := pc.Next()
		err := serve(i, reqs[i], &resp)
		end := now()
		o := classify(i, err)
		if o == answered {
			lat = append(lat, float64(end-due))
		}
		st.tally(o, i, &resp, lastV)
	}
	return st, lat, pc.LateMax
}

// healthy is the classification of a tier with nothing wrong: every
// error is a failure.
func healthy(_ int, err error) outcome {
	if err != nil {
		return failed
	}
	return answered
}

// quarters cuts an arrival-ordered sample of nanosecond timings into
// four equal consecutive parts and returns the median of the parts'
// p-th percentiles. The host's interference comes in bursts: a burst
// spoils the quarter it covers, and the median over the quarters
// outvotes it.
func quarters(ns []float64, p float64) float64 {
	const parts = 4
	var vals []float64
	for s := 0; s < parts; s++ {
		if part := ns[s*len(ns)/parts : (s+1)*len(ns)/parts]; len(part) > 0 {
			vals = append(vals, metrics.Percentile(part, p))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return measure.Median(vals)
}

// account folds a loop's counts into the repeat's operations.
func (r *run) account(st *loopStats) {
	r.res.Attempted += st.attempted
	r.res.Refused += st.refused
	r.res.Failed += st.failed
	r.check(st.backwards == 0, "%d queries were answered from an older version than the same query before", st.backwards)
}

// republishRounds times rounds full K-shard republishes back to back
// and returns each round's duration.
func (t *tier) republishRounds(rounds int) ([]float64, error) {
	ns := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := t.republish(); err != nil {
			return nil, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return ns, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkStatic is the serve workloads' merged ≡ static check: 1,000
// plan queries answered by the sharded tier equal the answers of the
// static term-partitioned index over the same ranks.
func (r *run) checkStatic(ix *search.Index, plan *Plan, serveQ serveFn) error {
	var got, want search.Response
	bad := 0
	for i := 0; i < len(plan.Reqs) && i < 1000; i++ {
		req := plan.Reqs[i]
		if err := ix.Serve(req, &want); err != nil {
			return err
		}
		if err := serveQ(i, req, &got); err != nil {
			bad++
			continue
		}
		same := len(got.Postings) == len(want.Postings)
		for j := 0; same && j < len(got.Postings); j++ {
			same = got.Postings[j] == want.Postings[j]
		}
		if !same {
			bad++
		}
	}
	r.check(bad == 0, "%d of 1000 merged answers differ from the static index", bad)
	return nil
}

// serveSpec sizes the three serve workloads: one tier shape, three
// traffic mixes. One closed-loop pass over the plan is one repetition
// of the timed phase — a third of a second, so a run repeats it a few
// dozen times — cut into slices of 8–15 ms.
type serveSpec struct {
	k, pagesPerShard, sites int
	planN                   int // queries in the plan
	sliceN                  int // queries in a timed slice of a pass
	drainPasses             int // passes a repeat makes

	// The traced repeat's open-loop phase and republish rounds.
	pacedN    int
	pacedRate float64 // per second, at most a quarter of what the drain sustains
	rounds    int
}

var serveSpecs = map[string]serveSpec{
	ServeRead:     {k: 1000, pagesPerShard: 20, sites: 100, planN: 32000, sliceN: 1000, drainPasses: 13, pacedN: 16000, pacedRate: 10000, rounds: 300},
	ServePublish:  {k: 1000, pagesPerShard: 20, sites: 100, planN: 12000, sliceN: 400, drainPasses: 14, pacedN: 12000, pacedRate: 10000},
	ServeDegraded: {k: 1000, pagesPerShard: 20, sites: 100, planN: 8000, sliceN: 250, drainPasses: 12, pacedN: 8000, pacedRate: 6000, rounds: 300},
}

// degradedStalenessBound is the admission bound of serve_degraded, in
// rounds: the schedule publishes every second tick, so the checkpoint
// cadence guarantees 2·Every−1 = 3.
const degradedStalenessBound = 3

// publishEvery is serve_publish's republish cadence.
const publishEvery = 5 * time.Millisecond

// serveRun is one repeat of a serve workload in progress.
type serveRun struct {
	*run
	kind string
	spec serveSpec
	t    *tier
	plan *Plan

	// serve_degraded: shard health comes from the fault lattice on a
	// query-index clock, so which queries degrade or shed is a pure
	// function of the seed. The clock runs in plan-index units; a phase
	// of another length scales its own index onto it.
	qi   atomic.Int64
	fcfg dprcore.FaultConfig
	at   int   // the node the front end sits on
	serr error // a republish inside the schedule failed

	// serve_publish: the publisher beside the reads.
	pub *publisher

	drain, paced loopStats
	lat          []float64 // ns; per-query latency of the traced drain, first pass first
}

func runServe(r *run, kind string) error {
	w := &serveRun{run: r, kind: kind, spec: serveSpecs[kind]}
	if err := w.setUp(); err != nil {
		return err
	}
	if kind == ServePublish {
		w.pub = startPublisher(w.t, publishEvery)
	}
	err := w.drainPasses()
	if err == nil && r.p.Trace {
		// The traced repeat goes on to the latency a user sees at a fixed
		// arrival rate, and to what a republish costs.
		err = w.tracedPhases()
	}
	if w.pub != nil {
		roundNs, perr := w.pub.stop()
		if err == nil {
			err = perr
		}
		r.layer("serve.publisher_late_us_max", float64(w.pub.lateMax)/1e3)
		if len(roundNs) > 0 {
			r.layer("serve.republish_p50_us", quarters(roundNs, 50)/1e3)
		}
	}
	if err != nil {
		return err
	}
	w.reportCounts()
	if err := w.checks(); err != nil {
		return err
	}
	if r.p.Trace {
		if kind == ServeDegraded {
			// The shed share of a drain pass is plan indices [7n/16, 9n/16).
			n := w.spec.planN
			r.layer("serve.shed_us", quarters(w.lat[7*n/16:9*n/16], 50)/1e3)
		}
		r.replayServing(w.t, w.plan)
	}
	return nil
}

// setUp ranks the crawl centrally (the serving tier is downstream of
// ranking; how the ranks were computed does not change what a query
// costs), builds the tier and draws the plan.
func (w *serveRun) setUp() error {
	g, err := w.generate(w.spec.k*w.spec.pagesPerShard, w.spec.sites, servedCrawlSeed)
	if err != nil {
		return err
	}
	var ranks pagerank.Result
	err = w.prep("pagerank", "open", "pagerank.reference_s", func() (err error) {
		ranks, err = pagerank.Open(g, pagerank.Defaults())
		return err
	})
	if err != nil {
		return err
	}
	var cfg serve.Config
	if w.kind == ServeDegraded {
		n := w.spec.planN
		w.fcfg = dprcore.FaultConfig{
			PartitionFrac: 0.3, PartitionFrom: float64(n / 4), PartitionTo: float64(n / 2),
			StraggleFrac: 0.25, StraggleFactor: 1, Seed: w.p.Seed,
		}
		for w.at < w.spec.k && w.fcfg.PartitionMinority(w.at) {
			w.at++ // the front end sits on a majority node
		}
		cfg.Health, err = serve.NewLatticeHealth(w.fcfg, w.at, func() float64 { return float64(w.qi.Load()) })
		if err != nil {
			return err
		}
		cfg.Admission = serve.Admission{StalenessBound: degradedStalenessBound}
	}
	if w.t, err = w.buildTier(g, w.spec.k, ranks.Ranks, cfg); err != nil {
		return err
	}
	return w.prep("bench", "plan", "", func() error {
		w.plan = NewPlan(w.p.Seed, w.spec.planN, w.t.text.Vocabulary)
		return nil
	})
}

// schedule advances serve_degraded's clock to query i of an n-query
// phase: a tick every n/16, a republish every n/8 offset n/16 and
// frozen inside the partition window [n/4, n/2) — the rankers behind
// the cut make no progress, staleness passes the bound at 7n/16 and the
// front end sheds until the first publish after the heal, at 9n/16.
func (w *serveRun) schedule(i, n int) {
	w.qi.Store(int64(i) * int64(w.spec.planN) / int64(n))
	if i > 0 && i%(n/16) == 0 {
		w.t.tick()
	}
	if i%(n/8) == n/16 && !(i >= n/4 && i < n/2) {
		if err := w.t.republish(); err != nil {
			w.serr = err
		}
	}
}

// startCycle puts serve_degraded's tier at the start of its schedule.
func (w *serveRun) startCycle() error {
	w.qi.Store(0)
	return w.t.republish()
}

// serving returns how a phase of n queries is served on q and how its
// outcomes are classified: plainly on a healthy tier, through the
// schedule on serve_degraded, where a refusal the schedule requires — a
// shed in [7n/16, 9n/16), an all-shards-unreachable answer inside the
// partition window — is not a failure and anything else unexpected is.
func (w *serveRun) serving(q *serve.Querier, n int) (serveFn, func(i int, err error) outcome) {
	if w.kind != ServeDegraded {
		return serveQFor(q), healthy
	}
	serveQ := func(i int, req search.Request, resp *search.Response) error {
		w.schedule(i, n)
		return q.Serve(req, resp)
	}
	classify := func(i int, err error) outcome {
		shedDue := i >= 7*n/16 && i < 9*n/16
		switch {
		case err == nil && !shedDue:
			return answered
		case errors.Is(err, search.ErrOverloaded) && shedDue:
			return refused
		case errors.Is(err, search.ErrStaleIndex) && i >= n/4 && i < n/2:
			return refused
		}
		return failed
	}
	return serveQ, classify
}

// drainPasses is the timed phase: the plan served closed-loop,
// drainPasses times over. Each pass is the same fixed work and one
// repetition of wall_s; on serve_degraded each is one cycle of the
// schedule.
func (w *serveRun) drainPasses() error {
	reqs := w.plan.Reqs
	var latp *[]float64
	if w.p.Trace {
		w.lat = make([]float64, 0, len(reqs)*w.spec.drainPasses)
		latp = &w.lat
	}
	var pass func() []float64 // serves the whole plan once, adds to w.drain, returns the slice times
	if w.kind == ServeRead {
		// Two queriers, each with its half of the plan and its own
		// slices. A slice counts for half its time, so the slices add up
		// to the pass's wall time when the two stay level.
		half := len(reqs) / 2
		parts := [2][]search.Request{reqs[:half], reqs[half:]}
		var (
			qs    = [2]*serve.Querier{w.t.fe.NewQuerier(), w.t.fe.NewQuerier()}
			lastV = [2][]int64{make([]int64, half), make([]int64, len(reqs)-half)}
			stats [2]loopStats
			lats  [2][]float64
		)
		pass = func() []float64 {
			var (
				wg     sync.WaitGroup
				slices [2][]float64
			)
			for j := range parts {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					var lp *[]float64
					if w.p.Trace {
						lp = &lats[j]
					}
					slices[j] = closedLoop(parts[j], w.spec.sliceN, 0.5, serveQFor(qs[j]), healthy, &stats[j], lastV[j], lp)
				}(j)
			}
			wg.Wait()
			w.drain = stats[0]
			w.drain.add(&stats[1])
			w.lat = append(append(w.lat[:0], lats[0]...), lats[1]...)
			return append(slices[0], slices[1]...)
		}
	} else {
		q, lastV := w.t.fe.NewQuerier(), make([]int64, len(reqs))
		serveQ, classify := w.serving(q, len(reqs))
		pass = func() []float64 {
			return closedLoop(reqs, w.spec.sliceN, 1, serveQ, classify, &w.drain, lastV, latp)
		}
	}
	w.settle()
	for p := 0; p < w.spec.drainPasses; p++ {
		if w.kind == ServeDegraded {
			if err := w.startCycle(); err != nil {
				return err
			}
		}
		w.timed("serve", "drain", func() (int64, error) {
			w.wall(pass()...)
			return int64(len(reqs)), nil
		})
	}
	w.account(&w.drain)
	return w.serr
}

// tracedPhases is the part of a serve workload only the traced repeat
// runs: an open-loop paced phase on one querier — at most a quarter of
// what the drain shows the tier sustains, so queueing does not amplify
// noise — and, where no publisher runs beside the reads, a series of
// republish rounds after them.
func (w *serveRun) tracedPhases() error {
	if w.kind == ServeDegraded {
		if err := w.startCycle(); err != nil {
			return err
		}
	}
	var (
		n                = w.spec.pacedN
		serveQ, classify = w.serving(w.t.fe.NewQuerier(), n)
		lat              []float64
		late             int64
	)
	w.timed("serve", "paced", func() (int64, error) {
		w.paced, lat, late = pacedLoop(w.plan.Reqs[:n], w.spec.pacedRate, serveQ, classify)
		return int64(n), nil
	})
	w.account(&w.paced)
	if w.serr != nil {
		return w.serr
	}
	w.layer("serve.gen_late_us_max", float64(late)/1e3)
	if len(lat) > 0 {
		w.layer("serve.query_p50_us", quarters(lat, 50)/1e3)
		w.layer("serve.query_p99_us", quarters(lat, 99)/1e3)
	}
	if w.pub != nil {
		return nil
	}
	var (
		roundNs []float64
		err     error
	)
	w.timed("serve", "republish", func() (int64, error) {
		roundNs, err = w.t.republishRounds(w.spec.rounds)
		return int64(w.spec.rounds), nil
	})
	if err != nil {
		return err
	}
	w.layer("serve.republish_p50_us", quarters(roundNs, 50)/1e3)
	return nil
}

// reportCounts reports what the phases counted. Where nothing races
// (not serve_publish, whose reader races the publisher) the counts are
// a pure function of the seed and must repeat exactly.
func (w *serveRun) reportCounts() {
	all := w.drain
	all.add(&w.paced)
	set := w.exact
	if w.kind == ServePublish {
		set = w.layer
	}
	set("serve.shards_per_query", ratio(all.shards, all.answered))
	set("serve.hops_per_query", ratio(all.hops, all.answered))
	set("serve.empty_plan_ratio", ratio(all.empty, all.answered))
	w.layer("serve.max_staleness_rounds", float64(all.maxStale))
	if w.kind == ServeDegraded {
		w.exact("serve.shed_ratio", ratio(w.t.fe.DegradeStats().Shed, all.attempted))
		w.exact("serve.degraded_ratio", ratio(all.degraded, all.attempted))
		w.exact("serve.hedged_reads", float64(all.hedged))
		w.exact("serve.mean_coverage", all.coverage/float64(max(all.degraded, 1)))
	}
	// Staleness within what the schedule allows: none where nothing
	// ages the shards, one round beside the publisher, the admission
	// bound plus a hedged read's one-round-older replica when degraded.
	bound := map[string]int64{ServeRead: 0, ServePublish: 1, ServeDegraded: degradedStalenessBound + 1}[w.kind]
	w.check(all.maxStale <= bound, "served staleness %d rounds, schedule allows %d", all.maxStale, bound)
}

// checks are the off-the-clock answers checks: merged ≡ static, and on
// serve_degraded the reported coverage against the lattice's.
func (w *serveRun) checks() error {
	t := w.t
	ix, err := search.Build(t.g, t.ranks, t.ov, t.assign, t.text)
	if err != nil {
		return err
	}
	q := t.fe.NewQuerier()
	if w.kind == ServeDegraded {
		if err := w.startCycle(); err != nil {
			return err
		}
		if err := w.checkCoverage(ix, q); err != nil {
			return err
		}
		w.qi.Store(0)
	}
	return w.checkStatic(ix, w.plan, serveQFor(q))
}

func serveQFor(q *serve.Querier) serveFn {
	return func(_ int, req search.Request, resp *search.Response) error { return q.Serve(req, resp) }
}

// checkCoverage recomputes, for plan queries served inside the
// partition window, the coverage the front end should report: the
// shards holding a page with every query term (from the static index's
// posting lists, not the front end's own tables), minus those the
// lattice puts behind the cut.
func (w *serveRun) checkCoverage(ix *search.Index, q *serve.Querier) error {
	t, plan, fcfg := w.t, w.plan, &w.fcfg
	shardsOf := func(term int32) (map[int32]bool, error) {
		ps, err := ix.PostingList(term)
		if err != nil {
			return nil, err
		}
		set := make(map[int32]bool)
		for _, p := range ps {
			set[t.assign.GroupOf[p.Page]] = true
		}
		return set, nil
	}
	w.qi.Store(int64(fcfg.PartitionFrom)) // inside the window, before staleness passes the bound
	var resp search.Response
	checked, bad := 0, 0
	for i := 0; i < len(plan.Reqs) && checked < 1000; i++ {
		req := plan.Reqs[i]
		sets := make([]map[int32]bool, len(req.Terms))
		for j, term := range req.Terms {
			var err error
			if sets[j], err = shardsOf(term); err != nil {
				return err
			}
		}
		planned, missed := 0, 0
		for s := range sets[0] {
			all := true
			for _, set := range sets[1:] {
				all = all && set[s]
			}
			if !all {
				continue
			}
			planned++
			if fcfg.PartitionMinority(int(s)) != fcfg.PartitionMinority(w.at) {
				missed++
			}
		}
		if planned == 0 {
			continue
		}
		checked++
		err := q.Serve(req, &resp)
		switch {
		case missed == planned:
			if !errors.Is(err, search.ErrStaleIndex) {
				bad++
			}
		case err != nil:
			bad++
		default:
			want := float64(planned-missed) / float64(planned)
			if resp.Coverage != want || resp.Degraded != (missed > 0) || resp.Cost.Responses != planned-missed {
				bad++
			}
		}
	}
	w.check(bad == 0, "%d of %d answers inside the partition report a coverage the lattice does not give", bad, checked)
	return nil
}

// publisher is serve_publish's write side: one goroutine that, on a
// fixed wall cadence, ages every shard one round and republishes all
// of them, timing each round.
type publisher struct {
	t       *tier
	every   time.Duration
	quit    chan struct{}
	done    chan struct{}
	roundNs []float64
	lateMax int64
	err     error
}

func startPublisher(t *tier, every time.Duration) *publisher {
	p := &publisher{
		t: t, every: every, quit: make(chan struct{}), done: make(chan struct{}),
		roundNs: make([]float64, 0, 8192),
	}
	go p.loop()
	return p
}

func (p *publisher) loop() {
	defer close(p.done)
	next := time.Now()
	for {
		next = next.Add(p.every)
		select {
		case <-p.quit:
			return
		case <-time.After(time.Until(next)):
		}
		if late := int64(time.Since(next)); late > p.lateMax {
			p.lateMax = late
		}
		t0 := time.Now()
		p.t.tick()
		if err := p.t.republish(); err != nil {
			p.err = err
			return
		}
		p.roundNs = append(p.roundNs, float64(time.Since(t0)))
	}
}

// stop ends the publisher, waits for it and returns its round times.
func (p *publisher) stop() ([]float64, error) {
	close(p.quit)
	<-p.done
	if p.err != nil {
		return nil, fmt.Errorf("publisher: %w", p.err)
	}
	return p.roundNs, nil
}
