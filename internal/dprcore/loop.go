package dprcore

import (
	"errors"
	"fmt"
	"slices"

	"p2prank/internal/pagerank"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
)

// ErrBadChunk is returned by Deliver and Restore for a chunk this loop
// cannot have been sent: its source group has no link into this group,
// or an entry addresses a page outside it. Chunks reach a live peer
// from the wire and a restarting one from a file, so this is input
// validation, not a bug trap.
var ErrBadChunk = errors.New("dprcore: bad chunk")

// innerMaxIter bounds DPR1's inner GroupPageRank solve. ‖A‖∞ ≤ α < 1
// makes the solve converge for any positive ε long before it.
const innerMaxIter = 10000

// Loop is one page ranker's algorithmic state and update rule, shared
// verbatim by every runtime. Its afferent state is one slot per group
// that links here (Group.AffSrcs), so it holds nothing for the rest of
// the network. A Loop is not goroutine-safe: the driver
// serializes Deliver, the phases, and NextWait (the simulator by
// running them on the simulation goroutine, netpeer with a mutex).
//
// One iteration of Algorithm 3/4 is ComputePhase followed by
// CommitPhase. The split mirrors the simulator's two-phase events:
// ComputePhase touches only this loop's private vectors, so a runtime
// may execute the compute phases of many loops concurrently at the
// same instant; CommitPhase draws randomness and emits through the
// Sender, so runtimes must run it serially in schedule order.
type Loop struct {
	grp      *Group
	p        Params
	meanWait float64
	sender   Sender
	rng      RNG
	// obs receives telemetry at the phase boundaries. It is nil-checked
	// before every hook: with no observer the hot path performs exactly
	// one pointer comparison per hook site and allocates nothing.
	obs telemetry.Observer

	r       vecmath.Vec // current rank vector R
	x       vecmath.Vec // assembled afferent vector X
	scratch vecmath.Vec // swap buffer for the in-place solves
	// latest holds the most recent chunk received from each source
	// group, parallel to grp.AffSrcs; refreshX sums the slots in order,
	// which is ascending by group, so rounding is reproducible. Stale
	// (older-round) chunks are ignored, since the paper's algorithms
	// always use the newest afferent scores available. Rounds start at
	// 1: a slot whose Round is 0 has received nothing.
	latest []transport.ScoreChunk

	loops   int64
	stepped bool

	// pending is the sender's unacked-chunk probe (set when the sender
	// is a ReliableSender), so snapshots capture the in-flight outbox.
	pending PendingSource
	// Reusable snapshot scratch: checkpointing on a cadence must not
	// grow the steady-state allocation profile.
	ckptBuf     []byte
	snapPending []transport.ScoreChunk
}

// NewLoop builds the loop for grp with the resolved per-loop mean wait
// (the runtime draws it from [p.T1, p.T2]; see Params). The rng must be
// a stream private to this loop. The loop consumes p's algorithm
// fields and Observer; Fault and the pacing bounds are runtime
// concerns (see FaultSender).
func NewLoop(grp *Group, p Params, meanWait float64, sender Sender, rng RNG) (*Loop, error) {
	if err := p.validateLoop(); err != nil {
		return nil, err
	}
	if meanWait < 0 {
		return nil, fmt.Errorf("dprcore: negative mean wait %v", meanWait)
	}
	if grp == nil || sender == nil || rng == nil {
		return nil, fmt.Errorf("dprcore: nil dependency")
	}
	l := &Loop{
		grp:      grp,
		p:        p,
		meanWait: meanWait,
		sender:   sender,
		rng:      rng,
		obs:      p.Observer,
		r:        vecmath.NewVec(grp.N()), // R0 = 0, the Theorem 4.1/4.2 start
		x:        vecmath.NewVec(grp.N()),
		scratch:  vecmath.NewVec(grp.N()),
		latest:   make([]transport.ScoreChunk, len(grp.AffSrcs)),
	}
	if ps, ok := sender.(PendingSource); ok {
		l.pending = ps
	}
	return l, nil
}

// Group returns the loop's page group.
func (l *Loop) Group() *Group { return l.grp }

// SetInitialRanks warm-starts the loop from a previous run's ranks —
// how an incremental recrawl avoids ranking from scratch (§4.3's
// dynamic-graph setting). It must be called before the first
// ComputePhase. Note the Theorem 4.1/4.2 monotonicity guarantees are
// stated for R0 = 0; a warm start trades them for a head start, and
// the contraction still drives the ranks to the fixed point.
func (l *Loop) SetInitialRanks(r vecmath.Vec) error {
	if l.stepped {
		return fmt.Errorf("dprcore: ranker %d: SetInitialRanks after first iteration", l.grp.Index)
	}
	if len(r) != l.grp.N() {
		return fmt.Errorf("dprcore: ranker %d: initial ranks have length %d, want %d",
			l.grp.Index, len(r), l.grp.N())
	}
	copy(l.r, r)
	return nil
}

// Ranks returns the loop's current rank vector. The slice is live;
// callers must copy before mutating or crossing an iteration.
func (l *Loop) Ranks() vecmath.Vec { return l.r }

// Loops returns how many main-loop iterations have executed.
func (l *Loop) Loops() int64 { return l.loops }

// NextWait draws the exponentially distributed pause before the next
// iteration. It consumes randomness, so drivers must call it from
// commit (serial) context, in schedule order.
func (l *Loop) NextWait() float64 { return l.rng.Exp(l.meanWait) }

// Deliver records the chunk as the newest afferent contribution from
// its source group, or returns ErrBadChunk (see there) and keeps what
// it had. A chunk addressed to another group is a routing bug in the
// driver and panics; drivers that can legitimately see foreign chunks
// (overlay relays) must filter before delivering.
func (l *Loop) Deliver(chunk transport.ScoreChunk) error {
	if int(chunk.DstGroup) != l.grp.Index {
		panic(fmt.Sprintf("dprcore: ranker %d delivered chunk for group %d", l.grp.Index, chunk.DstGroup))
	}
	slot, ok := slices.BinarySearch(l.grp.AffSrcs, chunk.SrcGroup)
	if !ok {
		return fmt.Errorf("%w: ranker %d: group %d does not link here", ErrBadChunk, l.grp.Index, chunk.SrcGroup)
	}
	if l.latest[slot].Round >= chunk.Round {
		return nil // out-of-order stale delivery
	}
	for _, e := range chunk.Entries {
		if e.DstLocal < 0 || int(e.DstLocal) >= len(l.x) {
			return fmt.Errorf("%w: ranker %d: group %d addresses page %d of %d",
				ErrBadChunk, l.grp.Index, chunk.SrcGroup, e.DstLocal, len(l.x))
		}
	}
	l.latest[slot] = chunk
	return nil
}

// ComputePhase is the compute half of one main-loop body of Algorithm
// 3 or 4: refresh X and update R, touching only this loop's private
// vectors, so a runtime may run it concurrently with other loops'
// compute phases at the same instant. Observer hooks fire here from
// that concurrent context; collectors handle per-ranker concurrency.
func (l *Loop) ComputePhase() {
	l.stepped = true
	round := l.loops + 1
	if l.obs != nil {
		l.obs.ComputeStart(l.grp.Index, round)
	}
	srcs, xEntries := l.refreshX()
	var st telemetry.ComputeStats
	switch l.p.Alg {
	case DPR1:
		opt := pagerank.Options{
			Alpha:   l.p.Alpha,
			Epsilon: l.p.InnerEpsilon,
			MaxIter: innerMaxIter,
		}
		res, err := l.grp.Sys.SolveInPlace(l.r, l.x, l.scratch, opt)
		if err != nil {
			// Inner non-convergence is a configuration error (‖A‖∞ < 1
			// guarantees convergence for any positive ε); surface loudly.
			panic(fmt.Sprintf("dprcore: ranker %d: inner solve: %v", l.grp.Index, err))
		}
		st.InnerIterations = res.Iterations
		st.Residual = res.FinalDelta
	case DPR2:
		l.grp.Sys.Step(l.scratch, l.r, l.x)
		l.r, l.scratch = l.scratch, l.r
		st.InnerIterations = 1
		if l.obs != nil {
			// ‖ΔR‖∞ of the single step; the old iterate sits in scratch
			// after the swap. Computed only for the observer — it feeds
			// nothing back into the algorithm.
			var d float64
			for i := range l.r {
				if diff := l.r[i] - l.scratch[i]; diff > d {
					d = diff
				} else if -diff > d {
					d = -diff
				}
			}
			st.Residual = d
		}
	}
	if l.obs != nil {
		st.XSources, st.XEntries = srcs, xEntries
		l.obs.ComputeEnd(l.grp.Index, round, st)
	}
}

// CommitPhase is the serial half of an iteration: everything that
// draws randomness or sends, plus the checkpoint cadence.
func (l *Loop) CommitPhase() {
	l.loops++
	l.publishY()
	if ck := l.p.Checkpoint; ck.Sink != nil && ck.Every > 0 && l.loops%ck.Every == 0 {
		l.ckptBuf = l.AppendSnapshot(l.ckptBuf[:0])
		if err := ck.Sink.Save(l.grp.Index, l.loops, l.ckptBuf); err != nil {
			// A checkpoint sink that cannot persist is an operational
			// error, not an algorithmic one, but running on silently
			// would fake the durability the config asked for.
			panic(fmt.Sprintf("dprcore: ranker %d: checkpoint: %v", l.grp.Index, err))
		}
	}
}

// Step runs one full iteration. Drivers that interleave many loops
// (the simulator) call the phases separately instead.
func (l *Loop) Step() {
	l.ComputePhase()
	l.CommitPhase()
}

// refreshX assembles X from the newest chunk of every source group,
// returning the source and entry counts for telemetry. Sources are
// summed in ascending group order so floating-point rounding is
// reproducible.
func (l *Loop) refreshX() (sources, entries int) {
	l.x.Zero()
	for i := range l.latest {
		c := &l.latest[i]
		if c.Round == 0 {
			continue
		}
		sources++
		entries += len(c.Entries)
		for _, e := range c.Entries {
			l.x[e.DstLocal] += e.Value
		}
	}
	return sources, entries
}

// publishY computes Y = BR per destination group and hands it to the
// Sender, subjecting each destination's send to the loss parameter p.
func (l *Loop) publishY() {
	sent := false
	for k, dstGroup := range l.grp.EffDsts {
		entries := l.grp.Eff[l.grp.EffOff[k]:l.grp.EffOff[k+1]]
		if l.p.SendProb < 1 && l.rng.Float64() >= l.p.SendProb {
			continue // this group's Y update is lost this round
		}
		chunk := transport.ScoreChunk{
			SrcGroup: int32(l.grp.Index),
			DstGroup: dstGroup,
			Round:    l.loops,
			// Sized exactly: one allocation, no append growth. The slice
			// cannot be pooled — it rides the in-flight message and the
			// receiver keeps it as its newest afferent contribution.
			Entries: make([]transport.ScoreEntry, 0, l.grp.EffMerged[k]),
		}
		// Entries are sorted by DstLocal; merge adjacent contributions
		// to the same destination page.
		for _, e := range entries {
			v := float64(e.Links) * l.p.Alpha * l.r[e.LocalSrc] / float64(l.grp.Deg[e.LocalSrc])
			chunk.Links += int64(e.Links)
			n := len(chunk.Entries)
			if n > 0 && chunk.Entries[n-1].DstLocal == e.DstLocal {
				chunk.Entries[n-1].Value += v
			} else {
				chunk.Entries = append(chunk.Entries, transport.ScoreEntry{DstLocal: e.DstLocal, Value: v})
			}
		}
		if err := l.sender.Send(l.grp.Index, chunk); err != nil {
			panic(fmt.Sprintf("dprcore: ranker %d: send: %v", l.grp.Index, err))
		}
		if l.obs != nil {
			l.obs.ChunkSent(l.grp.Index, telemetry.ChunkStats{
				Dst:     int(dstGroup),
				Round:   l.loops,
				Entries: len(chunk.Entries),
				Links:   chunk.Links,
			})
		}
		sent = true
	}
	if sent {
		if err := l.sender.Flush(l.grp.Index); err != nil {
			panic(fmt.Sprintf("dprcore: ranker %d: flush: %v", l.grp.Index, err))
		}
	}
}

// Drive runs the loop to completion under w: wait, compute, commit,
// repeat, until Wait reports the runtime is done. It is the whole main
// loop of Algorithm 3/4 for runtimes that block between iterations;
// event-driven runtimes schedule the phases themselves, and runtimes
// with concurrent delivery must also serialize against Deliver (which
// is why netpeer's driver inlines this loop under its state lock).
func Drive(l *Loop, w Waiter) {
	for w.Wait(l.NextWait()) {
		l.ComputePhase()
		l.CommitPhase()
	}
}
