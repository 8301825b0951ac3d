package telemetry

import (
	"fmt"
	"slices"
	"sync"
)

// DefaultBytesPerLink mirrors the paper's l = 100 bytes per link record
// (transport.DefaultSizeModel); the collector uses it to attribute
// payload bytes to emitted chunks without depending on the transport
// package.
const DefaultBytesPerLink = 100

// DefaultTraceCap is the trace ring's capacity in events.
const DefaultTraceCap = 4096

// ServingStats are the query tier's own cumulative counters. The tier
// keeps them (atomics on its read path); the collector pulls them when
// it is scraped, so exporting them costs a query nothing.
type ServingStats struct {
	// Shed is how many queries admission control refused.
	Shed int64
	// Hedged is how many shard reads fell back to the replica snapshot.
	Hedged int64
	// Degraded is how many queries were answered with partial coverage.
	Degraded int64
	// CacheHits and CacheMisses count response-cache lookups.
	CacheHits, CacheMisses int64
	// CacheEvictions counts cached responses dropped to make room;
	// CacheEntries is how many the cache holds now.
	CacheEvictions, CacheEntries int64
}

// Collector is the Observer both runtimes attach: the simulator through
// engine.Config.Observer (engine.Run copies Summary() into
// Result.Telemetry), live peers through netpeer.ClusterConfig.Observer, with
// dprnode -obs serving WriteMetrics and DumpTrace over HTTP. One
// collector serves a whole cluster; hooks arrive from the simulator's
// compute workers or from many peer and timer goroutines, and one mutex
// orders them.
//
// Everything Summary and WriteMetrics report is a count, a last value
// written by one ranker's serialized hooks, or a maximum, so the order
// in which concurrent hooks take the mutex cannot change it: a
// simulated run reports the same Summary at any GOMAXPROCS. The trace
// ring alone records arrival order, which among same-instant compute
// phases is the scheduler's; it is a diagnostic, not a result. State is
// bounded: nothing grows per event outside the ring.
type Collector struct {
	// Noop answers the hooks there is nothing to record for.
	Noop
	mu    sync.Mutex
	clock Clock
	hops  func(src, dst int) int
	slots []RankerTotals

	faults        [NumFaultKinds]int64
	milestones    int64
	lastMilestone Milestone
	innerIters    histogram

	queryLatency  histogram
	stalenessLast int64
	stalenessMax  int64
	snapPublishes int64
	snapVersion   int64
	serving       func() ServingStats
	// served is serving's reading at the current scrape.
	served ServingStats

	// ring holds the last len(ring) of the traced events so far.
	ring   []traceEvent
	traced int
	// first and last are the clock readings of the first and the latest
	// traced event.
	first, last float64
	started     bool
}

// NewCollector builds a collector for k rankers.
func NewCollector(k int) *Collector {
	return &Collector{
		slots: make([]RankerTotals, k),
		// Inner solver steps per compute phase: DPR1's inner loop
		// length; DPR2 always lands in the first bucket.
		innerIters: newHistogram(true, 1, 2, 4, 8, 16, 32, 64, 128),
		// Query latency in seconds, 50µs up to 100ms.
		queryLatency: newHistogram(false, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3),
		ring:         make([]traceEvent, DefaultTraceCap),
	}
}

// SetClock injects the runtime's clock (ClockSetter). Peers of one
// cluster all inject the same wall-clock adapter; repeat calls are
// harmless.
func (c *Collector) SetClock(clk Clock) {
	c.mu.Lock()
	c.clock = clk
	c.mu.Unlock()
}

// SetHops injects the runtime's overlay hop function (HopsSetter).
func (c *Collector) SetHops(h func(src, dst int) int) {
	c.mu.Lock()
	c.hops = h
	c.mu.Unlock()
}

// SetServing installs the getter WriteMetrics pulls the query tier's
// counters from (nil: they read zero).
func (c *Collector) SetServing(get func() ServingStats) {
	c.mu.Lock()
	c.serving = get
	c.mu.Unlock()
}

// trace stamps ev with runtime units since the collector's first event
// and appends it to the ring, overwriting the oldest. Callers hold mu.
func (c *Collector) trace(ev traceEvent) {
	if c.clock != nil {
		t := c.clock.Now()
		if !c.started {
			c.first, c.started = t, true
		}
		c.last = max(c.last, t)
		ev.T = t - c.first
	}
	c.ring[c.traced%len(c.ring)] = ev
	c.traced++
}

// ComputeEnd implements Observer.
func (c *Collector) ComputeEnd(ranker int, round int64, s ComputeStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := &c.slots[ranker]
	sl.Rounds = round
	sl.InnerIterations += int64(s.InnerIterations)
	sl.LastResidual = s.Residual
	c.innerIters.observe(float64(s.InnerIterations))
	c.trace(traceEvent{Ranker: ranker, Event: "compute",
		Round: round, Inner: s.InnerIterations, Resid: s.Residual})
}

// ChunkSent implements Observer.
func (c *Collector) ChunkSent(ranker int, ch ChunkStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := &c.slots[ranker]
	sl.Chunks++
	sl.Entries += int64(ch.Entries)
	sl.Links += ch.Links
	if c.hops != nil {
		sl.Hops += int64(c.hops(ranker, ch.Dst))
	} else {
		sl.Hops++
	}
	c.trace(traceEvent{Ranker: ranker, Event: "chunk",
		Round: ch.Round, Dst: to(ch.Dst), Links: ch.Links})
}

// FaultInjected implements Observer.
func (c *Collector) FaultInjected(ranker int, kind FaultKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(kind) < len(c.faults) {
		c.faults[kind]++
	}
	c.trace(traceEvent{Ranker: ranker, Event: "fault", Kind: kind.String()})
}

// ChunkRetried implements Observer. Retries fire from retransmission
// timers, not the ranker's commit context; the mutex covers them like
// every hook.
func (c *Collector) ChunkRetried(ranker int, dst int, attempt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[ranker].Retries++
	c.trace(traceEvent{Ranker: ranker, Event: "retry", Dst: to(dst), Attempt: attempt})
}

// AckReceived implements Observer.
func (c *Collector) AckReceived(ranker int, dst int, round int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[ranker].Acks++
	c.trace(traceEvent{Ranker: ranker, Event: "ack", Dst: to(dst), Round: round})
}

// Recovered implements Observer.
func (c *Collector) Recovered(ranker int, round int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[ranker].Recoveries++
	c.trace(traceEvent{Ranker: ranker, Event: "recover", Round: round})
}

// Milestone implements Observer.
func (c *Collector) Milestone(m Milestone) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.milestones++
	c.lastMilestone = m
	c.trace(traceEvent{Ranker: -1, Event: "milestone", RelErr: m.RelErr})
}

// QueryServed records one serving-tier query: wall-clock latency in
// seconds plus the staleness (rounds behind) of the served ranks.
func (c *Collector) QueryServed(latencySeconds float64, staleness int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queryLatency.observe(latencySeconds)
	c.stalenessLast = staleness
	c.stalenessMax = max(c.stalenessMax, staleness)
}

// SnapshotPublished records a rank-snapshot swap in the serving store.
func (c *Collector) SnapshotPublished(shard int, version, round int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapPublishes++
	c.snapVersion = max(c.snapVersion, version)
	c.trace(traceEvent{Ranker: shard, Event: "publish", Round: round})
}

// RankerTotals is one ranker's share of a Summary, and the collector's
// per-ranker state.
type RankerTotals struct {
	// Rounds is the ranker's committed main-loop count.
	Rounds int64
	// InnerIterations is the ranker's total inner solver steps.
	InnerIterations int64
	// Chunks, Entries, Links count the ranker's emitted score traffic
	// and Hops the overlay hops attributed to it.
	Chunks, Entries, Links, Hops int64
	// Retries, Acks, Recoveries are the ranker's share of the
	// reliable-delivery and checkpoint-restore counts.
	Retries, Acks, Recoveries int64
	// LastResidual is the inner residual of the last compute phase.
	LastResidual float64
}

// Summary is the deterministic aggregate of one run's telemetry.
type Summary struct {
	// Rankers is the collector's slot count (the run's K).
	Rankers int
	// Rounds is the total committed main-loop count across rankers.
	Rounds int64
	// InnerIterations is the total inner solver step count.
	InnerIterations int64
	// Chunks, Entries, Links count all emitted score chunks at the
	// dprcore Sender seam (before transport framing).
	Chunks, Entries, Links int64
	// PayloadBytes is Links × DefaultBytesPerLink — the paper's l·W
	// data term measured at the seam.
	PayloadBytes int64
	// ChunkHops is the total overlay hop count attributed to emitted
	// chunks (1 per chunk when no hop function was injected).
	ChunkHops int64
	// Faults counts injected transport faults, indexed by FaultKind.
	Faults [NumFaultKinds]int64
	// Retries, Acks, Recoveries count the reliable-delivery seam's
	// retransmissions, clearing acknowledgements, and checkpoint
	// restores (all zero when reliability/churn are disabled).
	Retries, Acks, Recoveries int64
	// Queries is the number of serving-tier queries recorded.
	Queries int64
	// FirstEvent and LastEvent bound the observed activity in the
	// runtime's clock (virtual time in-sim); zero without a clock.
	FirstEvent, LastEvent float64
	// Milestones is the number of convergence checkpoints seen and
	// LastMilestone the newest of them.
	Milestones    int64
	LastMilestone Milestone
	// PerRanker holds each ranker's totals, indexed by group.
	PerRanker []RankerTotals
}

// MeanRounds returns the mean committed loop count per ranker.
func (s Summary) MeanRounds() float64 {
	if s.Rankers == 0 {
		return 0
	}
	return float64(s.Rounds) / float64(s.Rankers)
}

// MeanChunkHops returns the mean overlay hops per emitted chunk.
func (s Summary) MeanChunkHops() float64 {
	if s.Chunks == 0 {
		return 0
	}
	return float64(s.ChunkHops) / float64(s.Chunks)
}

// String renders the headline totals; faults are listed in FaultKind
// order (drop/delay/dup/partition/straggle).
func (s Summary) String() string {
	f := s.Faults
	return fmt.Sprintf("telemetry: %d rankers, %d rounds, %d chunks (%d links, %d B payload, %.2f hops/chunk), faults %d/%d/%d/%d/%d",
		s.Rankers, s.Rounds, s.Chunks, s.Links, s.PayloadBytes, s.MeanChunkHops(), f[0], f[1], f[2], f[3], f[4])
}

// Summary folds the slots in ranker order.
func (c *Collector) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Rankers:       len(c.slots),
		Faults:        c.faults,
		Queries:       c.queryLatency.count,
		FirstEvent:    c.first,
		LastEvent:     c.last,
		Milestones:    c.milestones,
		LastMilestone: c.lastMilestone,
		PerRanker:     slices.Clone(c.slots),
	}
	for _, r := range s.PerRanker {
		s.Rounds += r.Rounds
		s.InnerIterations += r.InnerIterations
		s.Chunks += r.Chunks
		s.Entries += r.Entries
		s.Links += r.Links
		s.ChunkHops += r.Hops
		s.Retries += r.Retries
		s.Acks += r.Acks
		s.Recoveries += r.Recoveries
	}
	s.PayloadBytes = s.Links * DefaultBytesPerLink
	return s
}
