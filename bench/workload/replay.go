package workload

import (
	"bytes"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"p2prank/bench/measure"
	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// The traced run's layer replays. A run through engine.Run or
// StartCluster can only be spanned at its outer boundary and at the
// Observer seam; the layers in between are costed by driving each one
// on its own, from the harness, over the same inputs the run used (the
// same groups, the chunk stream those groups emit, the same event
// count). All of it is off the end-to-end clock.

// recSender is the Sender the replayed loops publish into: it keeps
// the chunk stream for the transport and codec replays.
type recSender struct{ chunks []transport.ScoreChunk }

func (s *recSender) Send(_ int, c transport.ScoreChunk) error {
	s.chunks = append(s.chunks, c)
	return nil
}

func (s *recSender) Flush(int) error { return nil }

// replayRanking costs the layers under a rank run. simTransport adds
// the simulator-only layers (fabric and scheduler); events is the
// run's event count, which the scheduler replay reproduces.
func (r *run) replayRanking(g webgraph.Store, k int, strat partition.Strategy, params dprcore.Params, events uint64, simTransport bool) {
	params.Defaults(1, 1)
	params.Observer = nil

	// The overlay and the partition, as engine.Run and StartCluster build
	// them inside (same ids, strategy and seed, so the same assignment).
	var (
		ov     overlay.Network
		assign *partition.Assignment
		err    error
	)
	d := r.replay("pastry", "build", func() int64 {
		ov, err = engine.BuildOverlay(engine.Pastry, k)
		return int64(k)
	})
	if err != nil {
		r.check(false, "BuildOverlay: %v", err)
		return
	}
	r.layer("pastry.build_s", d.Seconds())
	d = r.replay("partition", "assign", func() int64 {
		assign, err = partition.Assign(g, ov, strat, scheduleSeed)
		return int64(g.NumPages())
	})
	if err != nil {
		r.check(false, "partition.Assign: %v", err)
		return
	}
	r.layer("partition.assign_s", d.Seconds())

	// vecmath: the Jacobi step over the whole crawl's transition CSR.
	if a, err := pagerank.BuildTransition(g, params.Alpha); err == nil {
		n := g.NumPages()
		x, dst, e := vecmath.Const(n, 1), vecmath.NewVec(n), vecmath.Const(n, 1-params.Alpha)
		const steps = 5
		d := r.replay("vecmath", "step", func() int64 {
			for i := 0; i < steps; i++ {
				a.StepInto(dst, x, e, nil)
				x, dst = dst, x
			}
			return int64(steps * a.NNZ())
		})
		r.layer("vecmath.step_ns_per_nnz", float64(d)/float64(steps*a.NNZ()))
	}
	if r.res.Layer["pagerank.reference_s"] == 0 {
		d := r.replay("pagerank", "reference", func() int64 {
			_, err := pagerank.Open(g, pagerank.Options{Alpha: params.Alpha, Epsilon: 1e-12, MaxIter: 100000})
			r.check(err == nil, "reference replay: %v", err)
			return 0
		})
		r.layer("pagerank.reference_s", d.Seconds())
	}

	// overlay: one route lookup, as the fabric and the front end pay it.
	const routes = 2000
	rng := xrand.New(r.p.Seed ^ 0x0e71a7)
	d = r.replay("overlay", "route", func() int64 {
		for i := 0; i < routes; i++ {
			from, to := rng.Intn(k), rng.Intn(k)
			if _, err := overlay.Hops(ov, from, ov.NodeID(to)); err != nil {
				r.check(false, "overlay.Hops: %v", err)
			}
		}
		return routes
	})
	r.layer("overlay.route_ns", float64(d)/routes)

	// dprcore: group construction and its footprint.
	var groups []*dprcore.Group
	before := measure.HeapMB()
	d = r.replay("dprcore", "build_groups", func() int64 {
		groups, err = dprcore.BuildGroups(g, assign, params.Alpha)
		r.check(err == nil, "BuildGroups: %v", err)
		return int64(len(groups))
	})
	if groups == nil {
		return
	}
	r.layer("dprcore.build_groups_s", d.Seconds())
	r.layer("dprcore.groups_mb", measure.HeapMB()-before)

	// dprcore: two synchronous rounds of the same loops over a recording
	// sender — commit (publish Y) and deliver timed apart from compute.
	rec := &recSender{}
	loops := make([]*dprcore.Loop, len(groups))
	root := xrand.New(r.p.Seed)
	for i, grp := range groups {
		l, err := dprcore.NewLoop(grp, params, 1, rec, root.Fork())
		if err != nil {
			r.check(false, "NewLoop: %v", err)
			return
		}
		loops[i] = l
	}
	var commit, deliver time.Duration
	for round := 0; round < 2; round++ {
		for _, l := range loops {
			l.ComputePhase()
		}
		rec.chunks = rec.chunks[:0]
		commit += r.replay("dprcore", "commit", func() int64 {
			for _, l := range loops {
				l.CommitPhase()
			}
			return int64(len(rec.chunks))
		})
		deliver += r.replay("dprcore", "deliver", func() int64 {
			for _, c := range rec.chunks {
				loops[c.DstGroup].Deliver(c)
			}
			return int64(len(rec.chunks))
		})
	}
	r.layer("dprcore.commit_s", commit.Seconds())
	r.layer("dprcore.deliver_s", deliver.Seconds())
	chunks := rec.chunks // the second round's stream, real values in it

	if simTransport {
		r.replayFabric(ov, chunks)
		r.replayScheduler(events)
	}
	r.replayCodec(chunks)
	// The footprints above are heap deltas: nothing built here may be
	// collected while they are being taken.
	runtime.KeepAlive(assign)
	runtime.KeepAlive(groups)
	runtime.KeepAlive(loops)
}

// replayFabric pushes one round's chunk stream through the indirect
// fabric on a simulated network whose rankers only count deliveries:
// Send/Flush are timed apart from the relaying the simulator then does.
func (r *run) replayFabric(ov overlay.Network, chunks []transport.ScoreChunk) {
	sim := simnet.New(r.p.Seed)
	net, err := simnet.NewNetwork(sim, simnet.NetConfig{MinLatency: 0.1, MaxLatency: 0.1, BatchDelivery: true})
	if err != nil {
		r.check(false, "simnet.NewNetwork: %v", err)
		return
	}
	before := measure.HeapMB()
	fab, err := transport.NewFabric(net, ov, transport.Indirect, transport.DefaultSizeModel())
	if err != nil {
		r.check(false, "transport.NewFabric: %v", err)
		return
	}
	delivered := 0
	for i := 0; i < ov.NumNodes(); i++ {
		if err := fab.Register(i, func(transport.ScoreChunk) { delivered++ }); err != nil {
			r.check(false, "Fabric.Register: %v", err)
			return
		}
	}
	d := r.replay("transport", "send_flush", func() int64 {
		cur := -1
		for _, c := range chunks {
			if src := int(c.SrcGroup); src != cur {
				if cur >= 0 {
					_ = fab.Flush(cur) // a sink network refuses nothing
				}
				cur = src
			}
			_ = fab.Send(cur, c)
		}
		if cur >= 0 {
			_ = fab.Flush(cur)
		}
		return int64(len(chunks))
	})
	r.layer("transport.send_flush_s", d.Seconds())
	d = r.replay("transport", "relay_deliver", func() int64 { return int64(sim.Run(0)) })
	r.layer("transport.relay_deliver_s", d.Seconds())
	r.layer("transport.fabric_mb", measure.HeapMB()-before)
	r.check(delivered == len(chunks), "fabric replay delivered %d of %d chunks", delivered, len(chunks))
	runtime.KeepAlive(fab)
}

// replayScheduler runs the run's event count through the simulator as
// events that do nothing but schedule their successor: what
// scheduling alone costs per event.
func (r *run) replayScheduler(events uint64) {
	if events == 0 {
		return
	}
	sim := simnet.New(r.p.Seed)
	// A steady population of self-rescheduling chains, as rankers and
	// in-flight messages are: the queue holds about `chains` events
	// throughout, spread over a few distinct delays.
	const chains = 4096
	remaining := events
	var fire func(any)
	fire = func(arg any) {
		if remaining > 0 {
			remaining--
			sim.AfterArg(0.1*float64(1+arg.(int)%7), fire, arg)
		}
	}
	args := make([]any, chains)
	for i := range args {
		args[i] = i
	}
	d := r.replay("simnet", "schedule", func() int64 {
		for _, arg := range args {
			fire(arg)
		}
		return int64(sim.Run(0))
	})
	r.layer("simnet.sched_ns_per_event", float64(d)/float64(events))
}

// replayCodec pushes recorded chunks through the two wire encodings a
// live cluster can run: encoding/gob on transport.ScoreChunk (the
// default) and codec.Plain. A link is one score entry on the wire.
func (r *run) replayCodec(chunks []transport.ScoreChunk) {
	const maxChunks = 20000
	if len(chunks) > maxChunks {
		chunks = chunks[:maxChunks]
	}
	var links int64
	for _, c := range chunks {
		links += int64(len(c.Entries))
	}
	if links == 0 {
		return
	}
	perLink := func(d time.Duration) float64 { return float64(d) / float64(links) }

	var wire bytes.Buffer
	enc := gob.NewEncoder(&wire)
	d := r.replay("codec", "gob_encode", func() int64 {
		for i := range chunks {
			if err := enc.Encode(&chunks[i]); err != nil {
				r.check(false, "gob encode: %v", err)
			}
		}
		return links
	})
	r.layer("codec.gob_encode_ns_per_link", perLink(d))
	r.layer("codec.gob_bytes_per_link", float64(wire.Len())/float64(links))
	dec := gob.NewDecoder(&wire)
	d = r.replay("codec", "gob_decode", func() int64 {
		for range chunks {
			var c transport.ScoreChunk
			if err := dec.Decode(&c); err != nil {
				r.check(false, "gob decode: %v", err)
			}
		}
		return links
	})
	r.layer("codec.gob_decode_ns_per_link", perLink(d))

	var (
		plain codec.Plain
		buf   []byte
		sizes = make([]int, len(chunks))
	)
	d = r.replay("codec", "plain_encode", func() int64 {
		for i := range chunks {
			n := len(buf)
			buf = plain.Encode(buf, chunks[i])
			sizes[i] = len(buf) - n
		}
		return links
	})
	r.layer("codec.plain_encode_ns_per_link", perLink(d))
	r.layer("codec.plain_bytes_per_link", float64(len(buf))/float64(links))
	d = r.replay("codec", "plain_decode", func() int64 {
		off := 0
		for _, n := range sizes {
			if _, err := plain.Decode(buf[off : off+n]); err != nil {
				r.check(false, "plain decode: %v", err)
			}
			off += n
		}
		return links
	})
	r.layer("codec.plain_decode_ns_per_link", perLink(d))
}

// replayServing costs the serving tier's layers on one querier, after
// the timed phases: the text model, a hit and a miss told apart by the
// cache counters, the per-shard slope of a miss, one publish, the
// snapshot encoding, and what the HTTP handler adds.
func (r *run) replayServing(t *tier, plan *Plan) {
	const sample = 2000
	d := r.replay("search", "terms_of", func() int64 {
		for p := 0; p < sample; p++ {
			if _, err := search.TermsOf(t.g, int32(p%t.g.NumPages()), t.text); err != nil {
				r.check(false, "TermsOf: %v", err)
			}
		}
		return sample
	})
	r.layer("search.terms_of_ns", float64(d)/sample)

	// Hits and misses, one querier, closed loop over the plan.
	q := t.fe.NewQuerier()
	n := min(len(plan.Reqs), 20000)
	var (
		resp         search.Response
		hitNs        = make([]float64, 0, n)
		missNs       = make([]float64, 0, n)
		sx, sy       float64 // least squares of miss latency on shards answered
		sxx, sxy     float64
		hits0, miss0 = t.fe.CacheStats()
	)
	r.replay("serve", "hit_miss", func() int64 {
		for i := 0; i < n; i++ {
			h0, _ := t.fe.CacheStats()
			t0 := time.Now()
			err := q.Serve(plan.Reqs[i], &resp)
			ns := float64(time.Since(t0))
			if err != nil {
				continue // a refusal is costed by the workload, not here
			}
			if h1, _ := t.fe.CacheStats(); h1 > h0 {
				hitNs = append(hitNs, ns)
				continue
			}
			missNs = append(missNs, ns)
			x, y := float64(resp.Cost.Responses), ns
			sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
		}
		return int64(n)
	})
	hits1, miss1 := t.fe.CacheStats()
	r.layer("serve.cache_hit_ratio", ratio(hits1-hits0, hits1-hits0+miss1-miss0))
	if len(hitNs) > 0 {
		r.layer("serve.hit_us", metrics.Percentile(hitNs, 50)/1e3)
	}
	if m := float64(len(missNs)); m > 1 {
		r.layer("serve.miss_us", metrics.Percentile(missNs, 50)/1e3)
		if den := m*sxx - sx*sx; den > 0 {
			r.layer("serve.miss_ns_per_shard", (m*sxy-sx*sy)/den)
		}
	}

	// What the HTTP front adds to a query: the handler on a recorder,
	// against the same queries served directly.
	h := serve.NewHandler(t.fe, 10, nil)
	const httpN = 500
	reqs := make([]*http.Request, httpN)
	for i := range reqs {
		terms := make([]string, len(plan.Reqs[i].Terms))
		for j, term := range plan.Reqs[i].Terms {
			terms[j] = strconv.Itoa(int(term))
		}
		reqs[i] = httptest.NewRequest(http.MethodGet, "/search?k=10&terms="+strings.Join(terms, ","), nil)
	}
	viaHTTP := r.replay("serve", "http", func() int64 {
		for _, req := range reqs {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		return httpN
	})
	direct := r.replay("serve", "direct", func() int64 {
		for i := 0; i < httpN; i++ {
			_ = q.Serve(plan.Reqs[i], &resp) // costed above; only the time matters here
		}
		return httpN
	})
	r.layer("serve.http_overhead_us", float64(viaHTTP-direct)/httpN/1e3)

	// One publish, and the snapshot encoding under it.
	const rounds = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d = r.replay("serve", "publish", func() int64 {
		for i := 0; i < rounds; i++ {
			if err := t.republish(); err != nil {
				r.check(false, "republish: %v", err)
			}
		}
		return int64(rounds * t.k)
	})
	runtime.ReadMemStats(&ms1)
	saves := float64(rounds * t.k)
	r.layer("serve.publish_us", float64(d)/saves/1e3)
	r.layer("serve.publish_allocs", float64(ms1.Mallocs-ms0.Mallocs)/saves)

	bufs := make([][]byte, t.k)
	scores := make([][]float64, t.k)
	for s := range scores {
		for _, p := range t.assign.Pages[s] {
			scores[s] = append(scores[s], t.ranks[p])
		}
	}
	d = r.replay("dprcore", "snapshot_encode", func() int64 {
		for i := 0; i < rounds; i++ {
			for s := range bufs {
				bufs[s] = dprcore.EncodeRankSnapshot(bufs[s][:0], s, int64(i), scores[s])
			}
		}
		return int64(rounds * t.k)
	})
	r.layer("dprcore.snapshot_encode_us", float64(d)/rounds/1e3)
	var scratch []float64
	d = r.replay("dprcore", "snapshot_decode", func() int64 {
		for i := 0; i < rounds; i++ {
			for s := range bufs {
				var err error
				if _, _, scratch, err = dprcore.DecodeSnapshotRanks(bufs[s], scratch[:0]); err != nil {
					r.check(false, "DecodeSnapshotRanks: %v", err)
				}
			}
		}
		return int64(rounds * t.k)
	})
	r.layer("dprcore.snapshot_decode_us", float64(d)/rounds/1e3)
}
