package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"p2prank/bench/measure"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// simSpec sizes one simulator workload.
type simSpec struct {
	pages, sites, k int
	mapped          bool // crawl written to disk and memory-mapped, as the scale runs do
	cfg             engine.Config
	target          float64 // relative error the run must have reached at its horizon (0: none)
	// runs is how many identical engine runs a repeat makes, each one
	// repetition of the timed phase. engine.Run cannot be cut into
	// slices from outside, so the runs themselves are kept short — a
	// fifth to a third of a second — and the run's wall_s is the
	// fastest of them (see measure.QuietSum).
	runs int
}

// simScaleSpec is README's scale decade at K = 800: 20 pages a ranker,
// hash-by-page (every link crosses groups), DPR1 with T1 = T2 = 3 to a
// horizon of 30 — about ten loops a ranker — indirect over Pastry on a
// fixed-latency batched network. Three samples, so the monotone
// average rank of Theorem 4.1 can be checked.
var simScaleSpec = simSpec{
	pages: 10000, sites: 100, k: 500, mapped: true,
	cfg: engine.Config{
		Params:      dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3},
		Strategy:    partition.ByPage,
		Transport:   transport.Indirect,
		Net:         simnet.NetConfig{MinLatency: 0.1, MaxLatency: 0.1, BatchDelivery: true},
		SampleEvery: 3, MaxTime: 9,
	},
	runs: 20,
}

// simPaperSpec is the paper's dataset shape and Figure-6 setting at a
// twenty-fifth of its size: 40 Zipf-sized sites of a thousand pages on
// average, ten rankers a site as in the paper (K = 400 hash-by-site,
// so at most 40 rankers hold a site and the rest idle), DPR1, indirect,
// sampled every 5 units. Two departures keep the work steady. Every
// ranker waits a mean of 3 units — the middle of Figure 6's [0, 6] —
// rather than a mean drawn per ranker, because the draw of the ranker
// holding the largest site alone moves the wall by a factor of three.
// And the run goes to a fixed horizon of 60 units, well past where it
// reaches the figure's 1e-4 (by 45 on every crawl tried; the late
// loops cost little), which is then checked rather than waited for.
var simPaperSpec = simSpec{
	pages: 40000, sites: 40, k: 400,
	cfg: engine.Config{
		Params:      dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3},
		Strategy:    partition.BySite,
		Transport:   transport.Indirect,
		SampleEvery: 5, MaxTime: 60,
	},
	target: 1e-4,
	runs:   12,
}

// generate is the set-up step every workload starts with.
func (r *run) generate(pages, sites int, seed uint64) (g *webgraph.Graph, err error) {
	err = r.prep("webgraph", "generate", "webgraph.generate_s", func() (err error) {
		g, err = crawl(pages, sites, seed)
		return err
	})
	return g, err
}

func runSim(r *run, spec simSpec) error {
	mem, err := r.generate(spec.pages, spec.sites, r.p.Seed)
	if err != nil {
		return err
	}
	var g webgraph.Store = mem
	if spec.mapped {
		path := filepath.Join(r.p.OutDir, fmt.Sprintf("crawl-%d.bin", os.Getpid()))
		defer os.Remove(path)
		var m *webgraph.Mapped
		err := r.prep("webgraph", "map_open", "webgraph.map_open_s", func() (err error) {
			if err = webgraph.WriteMappedFile(path, mem); err != nil {
				return err
			}
			m, err = webgraph.OpenMapped(path)
			return err
		})
		if err != nil {
			return err
		}
		defer m.Close()
		g, mem = m, nil
	}
	cfg := spec.cfg
	cfg.Graph, cfg.K, cfg.Seed = g, spec.k, scheduleSeed
	err = r.prep("pagerank", "reference", "pagerank.reference_s", func() (err error) {
		cfg.Reference, err = engine.Reference(g, 0.85)
		return err
	})
	if err != nil {
		return err
	}

	var (
		res    *engine.Result
		obs    *computeObserver
		wall   float64 // of the last run
		traced int32   // span of the run the observer watched
	)
	for i := 0; i < spec.runs; i++ {
		// Every run starts from a collected heap, so the repeat's peak
		// RSS is one run's and not what several left behind.
		r.settle()
		// Every run of a traced repeat carries an observer, so all its
		// wall samples are traced ones; the last run's spans and counts
		// are the ones reported.
		if r.p.Trace {
			obs = newComputeObserver(spec.k, r.rec)
			cfg.Observer = obs
		}
		span := r.rec.Begin(r.root, "engine", "run")
		t0 := time.Now()
		next, err := engine.Run(cfg)
		wall = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		r.rec.End(span, int64(next.Events))
		r.res.MeasuredS += wall
		r.res.Attempted++
		r.wall(wall)
		if res != nil {
			r.check(sameRun(res, next), "two runs of one seed in one process differ")
		}
		res, traced = next, span
	}

	// What must repeat bit for bit for this seed.
	const mb = 1 << 20
	r.exact("simnet.events", float64(res.Events))
	r.exact("simnet.net_msgs", float64(res.NetStats.MessagesSent))
	r.exact("simnet.net_mb", float64(res.NetStats.BytesSent)/mb)
	r.exact("engine.rel_err", res.RelErr)
	r.exact("engine.converged_at", res.ConvergedAt)
	r.exact("engine.mean_loops", res.LoopsAtConvergence)
	r.exact("transport.data_msgs", float64(res.TransportStats.DataMessages))
	r.exact("transport.data_mb", float64(res.TransportStats.DataBytes)/mb)
	r.layer("engine.run_s", wall) // the layer shares are of the run that was traced
	r.layer("simnet.events_per_s", float64(res.Events)/wall)
	if obs != nil {
		obs.report(r, traced, "compute", r.exact)
		r.layer("engine.self_s", float64(measure.SelfTimes(r.rec.Spans())[traced])/1e9)
		if chunks := r.res.Layer["dprcore.chunks_sent"]; chunks > 0 {
			r.exact("transport.relay_ratio", float64(res.TransportStats.DataMessages)/chunks)
		}
	}

	// Off the clock: the paper's invariants on this run.
	r.checkRun(spec, res)

	if r.p.Trace {
		r.replayRanking(g, spec.k, spec.cfg.Strategy, cfg.Params, res.Events, true)
	}
	return nil
}

// sameRun reports whether two runs of one configuration agree on
// everything that is a pure function of it.
func sameRun(a, b *engine.Result) bool {
	return a.Events == b.Events && a.NetStats == b.NetStats && a.TransportStats == b.TransportStats &&
		a.RelErr == b.RelErr && a.ConvergedAt == b.ConvergedAt && a.LoopsAtConvergence == b.LoopsAtConvergence
}

// checkRun holds a simulator run to Theorems 4.1 and 4.2 — from
// R0 = 0 the average rank never falls and the ranks never pass the
// centralized fixed point — and, where the workload sets a target, to
// having reached it with the paper's mean rank (about 0.3, because 8
// of 15 links leave the crawl).
func (r *run) checkRun(spec simSpec, res *engine.Result) {
	prev := 0.0
	for _, s := range res.Samples {
		r.check(s.AvgRank >= prev, "average rank fell from %v to %v at t=%v (Thm 4.1)", prev, s.AvgRank, s.Time)
		prev = s.AvgRank
	}
	r.check(len(res.Samples) > 0, "the run recorded no sample")
	r.check(vecmath.Dominates(res.Reference, res.Final, 1e-9), "a rank exceeds the centralized fixed point (Thm 4.2)")
	r.check(res.RelErr < 1, "relative error %v: the run made no progress", res.RelErr)
	if spec.target > 0 {
		r.check(res.RelErr <= spec.target, "relative error %v at t=%v, want %v", res.RelErr, spec.cfg.MaxTime, spec.target)
		mean := res.Final.Mean()
		r.check(mean >= 0.2 && mean <= 0.4, "mean rank %v outside [0.2, 0.4]", mean)
	}
}
