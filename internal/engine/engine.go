// Package engine orchestrates a full distributed page-ranking
// experiment: it builds the overlay, partitions the crawl, wires K
// asynchronous rankers to a transport fabric over the simulated
// network, runs them against the centralized reference vector, and
// records the time series behind the paper's Figures 6–8. Each ranker
// is one dprcore.Loop under the simulator driver in ranker.go.
package engine

import (
	"fmt"
	"math"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/simnet"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// OverlayKind names a structured overlay. Pastry, the overlay the
// paper runs on, is its only value; the type stays only because the
// benchmark harness under bench/ calls BuildOverlay(Pastry, k).
type OverlayKind int

// Pastry is the overlay the paper runs on.
const Pastry OverlayKind = 0

// Config describes one experiment. Zero values select the defaults
// noted per field; Graph, K, and MaxTime are required.
//
// The algorithm knobs (Alg, Alpha, InnerEpsilon, SendProb, T1/T2,
// Fault, Observer) live in the embedded dprcore.Params, the
// configuration surface shared with netpeer — see DESIGN.md §9.
// Engine-specific notes: T1/T2 are in virtual time units and default
// to 15/15 (the Figure 8 setting); drawn means are clamped to at
// least MinMeanWait to keep event counts finite. An Observer that is
// a *telemetry.Collector additionally gets the simulator as its
// clock, the overlay route lengths as its hop source, and its
// aggregate published in Result.Telemetry.
type Config struct {
	// Params are the shared DPR loop parameters (see dprcore.Params).
	dprcore.Params
	// Graph is the crawl to rank (one opened from a file must stay
	// open for the whole run).
	Graph *webgraph.Graph
	// K is the number of page rankers.
	K int
	// Strategy selects the page-partitioning strategy (default BySite).
	Strategy partition.Strategy
	// Transport selects direct or indirect transmission. The zero
	// value is Direct; the paper's scalable scheme, and what every
	// experiment preset sets, is transport.Indirect.
	Transport transport.Kind
	// Seed drives all randomness (default 1).
	Seed uint64
	// Net configures the simulated network (zero → DefaultNetConfig).
	Net simnet.NetConfig
	// Codec optionally encodes score chunks on the wire (see
	// internal/codec): message sizes then reflect the real encoding,
	// and lossy codecs genuinely perturb the exchanged scores. Nil
	// keeps the paper's analytic l-bytes-per-link accounting.
	Codec transport.ChunkCodec
	// Reference optionally supplies the centralized PageRank fixed
	// point R* (page-indexed, as returned by Reference). When nil the
	// run computes it itself; experiment suites that run several curves
	// over one graph compute it once and share it across runs.
	Reference vecmath.Vec
	// SampleEvery is the sampling interval for the time series
	// (default 5 time units).
	SampleEvery float64
	// MaxTime is the virtual-time horizon; the run always stops here.
	MaxTime float64
	// TargetRelErr stops the run early once the global relative error
	// against centralized PageRank drops to this threshold (0 = run to
	// MaxTime). Figure 8 uses 1e-4 (0.01%).
	TargetRelErr float64
	// Churn schedules ranker outages on virtual time, §4.2's suspend
	// (a warm restart) included (see dprcore.ChurnEvent; every
	// RestartAt <= MaxTime). Crash and restart are serial virtual-time
	// events, so a seeded churn schedule is part of the deterministic
	// run: same seed + schedule, byte-identical results at any
	// GOMAXPROCS.
	Churn []dprcore.ChurnEvent
}

// MinMeanWait is the lower clamp for a ranker's mean waiting time. A
// zero mean would schedule unboundedly many loops at one instant.
const MinMeanWait = 0.1

// validate checks the engine's own fields and deploys the crawl
// (dprcore.Deploy) over the configured overlay with the simulator's
// wait defaults, leaving the resolved parameters in c.
func (c *Config) validate() (*dprcore.Deployment, error) {
	if c.Graph == nil {
		return nil, fmt.Errorf("engine: Graph is required")
	}
	if c.K <= 0 {
		return nil, fmt.Errorf("engine: K = %d, must be positive", c.K)
	}
	// The negated comparisons below also refuse NaN, which compares
	// false with everything; a finite MaxTime then bounds every window.
	if math.IsInf(c.MaxTime, 0) || !(c.MaxTime > 0) {
		return nil, fmt.Errorf("engine: MaxTime = %v, must be finite and positive", c.MaxTime)
	}
	c.Params.Defaults(15, 15)
	if c.Net == (simnet.NetConfig{}) {
		c.Net = simnet.DefaultNetConfig()
	}
	//p2plint:allow floateq -- unset-field detection on a config value, not a computed score
	if c.SampleEvery == 0 {
		c.SampleEvery = 5
	}
	if math.IsInf(c.SampleEvery, 0) || !(c.SampleEvery > 0) {
		return nil, fmt.Errorf("engine: SampleEvery %v must be finite and positive", c.SampleEvery)
	}
	if math.IsInf(c.TargetRelErr, 0) || !(c.TargetRelErr >= 0) {
		return nil, fmt.Errorf("engine: TargetRelErr %v must be finite and non-negative", c.TargetRelErr)
	}
	ring, err := BuildOverlay(Pastry, c.K)
	if err != nil {
		return nil, err
	}
	dep, err := dprcore.Deploy(c.Graph, ring, c.Strategy, c.Params, c.Seed, c.Churn)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	c.Params, c.Seed = dep.Params, dep.Seed
	for i, ev := range c.Churn {
		if ev.RestartAt > c.MaxTime {
			return nil, fmt.Errorf("engine: churn %d restarts at %v, beyond MaxTime %v", i, ev.RestartAt, c.MaxTime)
		}
	}
	return dep, nil
}

// Result is the outcome of one experiment run: the run record on
// virtual time (one sample per SampleEvery, ConvergedAt the time
// TargetRelErr was reached) and the simulator's own counters.
type Result struct {
	dprcore.Record
	// Reference is the centralized PageRank fixed point R*.
	Reference vecmath.Vec
	// NetStats are network-level counters for the whole run.
	NetStats simnet.Stats
	// TransportStats are transport-level counters for the whole run.
	TransportStats transport.Stats
	// AvgHops is the overlay's measured mean lookup hop count.
	AvgHops float64
	// AvgNeighbors is the overlay's mean neighbor count (g in S_it=gN).
	AvgNeighbors float64
	// Deployment is the crawl as the run deployed it: the resolved
	// parameters, the ring and the partition. Its Groups are nil once
	// the run returns (dprcore.BuildGroups over Assign rebuilds them).
	Deployment *dprcore.Deployment
	// Telemetry is the collector's aggregate, filled when
	// Config.Observer is a *telemetry.Collector (nil otherwise).
	Telemetry *telemetry.Summary
	// Events is the number of simulator events the run executed —
	// paired with wall time it gives the scale experiments their
	// events/sec throughput metric.
	Events uint64
}

// cluster is the assembled machinery of one run.
type cluster struct {
	sim     *simnet.Simulator
	net     *simnet.Network
	fab     *transport.Fabric
	stack   dprcore.Stack
	rankers []*ranker
}

// BuildOverlay builds the Pastry ring over the k ranker IDs of
// nodeid.RankerIDs; k must be positive and kind must be Pastry.
func BuildOverlay(kind OverlayKind, k int) (overlay.Network, error) {
	if k <= 0 {
		return nil, fmt.Errorf("engine: overlay of K = %d rankers, must be positive", k)
	}
	if kind != Pastry {
		return nil, fmt.Errorf("engine: unknown overlay kind %d", int(kind))
	}
	return pastry.New(nodeid.RankerIDs(k))
}

func build(cfg Config, dep *dprcore.Deployment) (*cluster, error) {
	sim := simnet.New(cfg.Seed)
	net, err := simnet.NewNetwork(sim, cfg.Net)
	if err != nil {
		return nil, err
	}
	fab, err := transport.NewFabric(net, dep.Ring, cfg.Transport, transport.DefaultSizeModel())
	if err != nil {
		return nil, err
	}
	if cfg.Codec != nil {
		if err := fab.SetCodec(cfg.Codec); err != nil {
			return nil, err
		}
	}
	// A collector gets the simulator's virtual clock and the fabric's own
	// route lengths (exact at every K: the memo the chunks are routed
	// through).
	telemetry.Attach(cfg.Observer, sim, fab.Hops)
	root := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	// The simulator is the Clock, built at virtual time 0: the epoch
	// fault windows are measured from.
	stack, err := dprcore.NewStack(fab, sim, 0, func() dprcore.RNG { return root.Fork() }, cfg.Params)
	if err != nil {
		return nil, err
	}
	if stack.Reliable != nil {
		// Acked delivery: every chunk that reaches its owner is
		// acknowledged straight back to its source (end-to-end, one hop).
		// Only when reliability is on, so disabled configs send no acks.
		fab.OnAck(stack.Reliable.Ack)
	}
	rankers := make([]*ranker, cfg.K)
	for i := 0; i < cfg.K; i++ {
		mean := cfg.T1 + root.Float64()*(cfg.T2-cfg.T1)
		if mean < MinMeanWait {
			mean = MinMeanWait
		}
		rk, err := newRanker(dep.Groups[i], cfg.Params, mean, sim, stack.Sender, root.Fork())
		if err != nil {
			return nil, err
		}
		if err := fab.Register(i, rk.Deliver); err != nil {
			return nil, err
		}
		rankers[i] = rk
	}
	return &cluster{sim: sim, net: net, fab: fab, stack: stack, rankers: rankers}, nil
}

// Run executes one experiment, ranking from R0 = 0.
func Run(cfg Config) (*Result, error) {
	dep, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	ref := cfg.Reference
	if ref == nil {
		ref, err = Reference(cfg.Graph, cfg.Alpha)
		if err != nil {
			return nil, err
		}
	} else if len(ref) != cfg.Graph.NumPages() {
		return nil, fmt.Errorf("engine: Reference has length %d, want %d",
			len(ref), cfg.Graph.NumPages())
	}
	cl, err := build(cfg, dep)
	if err != nil {
		return nil, err
	}
	res := &Result{Record: dprcore.Record{ConvergedAt: -1, Final: vecmath.NewVec(cfg.Graph.NumPages())},
		Reference: ref, Deployment: dep}
	hops, err := overlay.AvgHops(dep.Ring, 500, xrand.New(cfg.Seed^0xabcdef))
	if err != nil {
		return nil, err
	}
	res.AvgHops = hops
	totalN := 0
	for i := 0; i < dep.Ring.NumNodes(); i++ {
		totalN += len(dep.Ring.Neighbors(i))
	}
	res.AvgNeighbors = float64(totalN) / float64(dep.Ring.NumNodes())

	for _, rk := range cl.rankers {
		rk.Start()
	}
	for _, ev := range cfg.Churn {
		ev := ev
		rk := cl.rankers[ev.Ranker]
		var snap []byte
		var recovered bool
		cl.sim.At(ev.CrashAt, func() {
			// Crash: host down (in-flight traffic toward it is lost),
			// loop stopped, and the reliable layer forgets the crashed
			// sender's pending chunks — a warm restart's snapshot, taken
			// first, is what carries them over. A stopped loop saves no
			// checkpoint, so its restart's snapshot is known now.
			cl.net.SetDown(cl.fab.Addr(ev.Ranker), true)
			snap, recovered = dep.RestartFrom(ev, rk.loop.Snapshot)
			rk.Crash()
			if cl.stack.Reliable != nil {
				cl.stack.Reliable.Forget(ev.Ranker)
			}
		})
		cl.sim.At(ev.RestartAt, func() {
			cl.net.SetDown(cl.fab.Addr(ev.Ranker), false)
			if recovered {
				res.Recoveries++
			}
			if err := rk.Restart(snap); err != nil {
				panic(fmt.Sprintf("engine: restart ranker %d: %v", ev.Ranker, err))
			}
			if cl.stack.Reliable != nil {
				// Senders whose breaker gave the crashed ranker up resume
				// immediately on restart instead of waiting out the cooldown.
				cl.stack.Reliable.ClearBreaker(ev.Ranker)
			}
		})
	}
	ranker := func(i int) dprcore.Ranker { return cl.rankers[i] }
	stopAll := func() {
		for _, rk := range cl.rankers {
			rk.Stop()
		}
	}
	var sampleAt func(t float64)
	sampleAt = func(t float64) {
		cl.sim.At(t, func() {
			if dep.Sample(&res.Record, t, ref, cfg.TargetRelErr, ranker) {
				stopAll()
				return
			}
			if t+cfg.SampleEvery <= cfg.MaxTime {
				sampleAt(t + cfg.SampleEvery)
			} else {
				stopAll()
			}
		})
	}
	if cfg.SampleEvery <= cfg.MaxTime {
		sampleAt(cfg.SampleEvery)
	} else {
		cl.sim.At(cfg.MaxTime, stopAll)
	}
	cl.sim.Run(0)

	meanLoops := dep.Assemble(res.Final, ranker)
	// The loops were the groups' only readers. Dropping them keeps a
	// held Result from pinning every ranker's link tables — O(K²)
	// destination arrays at K = 500.
	dep.Groups = nil
	res.RelErr = vecmath.RelErr1(res.Final, ref)
	if res.ConvergedAt < 0 {
		res.LoopsAtConvergence = meanLoops
	}
	res.NetStats = cl.net.TotalStats()
	res.TransportStats = cl.fab.Stats()
	res.Events = cl.sim.Processed()
	res.Tally(cl.stack)
	if col, ok := cfg.Observer.(*telemetry.Collector); ok {
		sum := col.Summary()
		res.Telemetry = &sum
	}
	return res, nil
}

// Reference computes the centralized PageRank fixed point R* that every
// run measures against, at the engine's standard tolerance. Experiment
// suites call it once per graph and pass the result to each run via
// Config.Reference instead of re-deriving it per curve.
func Reference(g *webgraph.Graph, alpha float64) (vecmath.Vec, error) {
	return dprcore.Reference(g, alpha)
}

// CPRIterations returns the number of centralized power-iteration steps
// (starting from R0 = 0, like the distributed algorithms) needed to
// bring the relative error against the fixed point below target. This
// is the CPR curve of Figure 8.
func CPRIterations(g *webgraph.Graph, alpha, target float64) (int, error) {
	star, err := Reference(g, alpha)
	if err != nil {
		return 0, err
	}
	return CPRIterationsFrom(g, alpha, target, star)
}

// CPRIterationsFrom is CPRIterations with the fixed point star already
// in hand (see Reference).
func CPRIterationsFrom(g *webgraph.Graph, alpha, target float64, star vecmath.Vec) (int, error) {
	if target <= 0 {
		return 0, fmt.Errorf("engine: target must be positive, got %v", target)
	}
	a, err := pagerank.BuildTransition(g, alpha)
	if err != nil {
		return 0, err
	}
	n := g.NumPages()
	r := vecmath.NewVec(n)
	next := vecmath.NewVec(n)
	betaE := vecmath.Const(n, 1-alpha) // βE with E = 1
	for it := 1; ; it++ {
		a.StepInto(next, r, betaE, nil)
		r, next = next, r
		if vecmath.RelErr1(r, star) <= target {
			return it, nil
		}
		if it > 100000 {
			return 0, fmt.Errorf("engine: CPR did not reach %v", target)
		}
	}
}
