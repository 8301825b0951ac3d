package engine

import (
	"fmt"

	"p2prank/internal/dprcore"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/xrand"
)

// ranker is the simulator driver of the runtime-agnostic DPR loop
// (internal/dprcore): it owns one dprcore.Loop and decides only *when*
// its phases run — exponential waits on virtual time, two-phase
// scheduling so the simulator can batch same-instant compute phases
// onto the parallel pool, and the crash/restart lifecycle the churn
// schedule drives (§4.2's asynchrony model). The algorithmic state and the
// DPR1/DPR2 update rule live in dprcore, shared verbatim with the live
// TCP driver (internal/netpeer). A ranker is driven entirely by
// simulator events; all methods must be called from the simulation
// goroutine.
type ranker struct {
	loop *dprcore.Loop
	sim  *simnet.Simulator
	// timer is the ranker's one recurring wait event (simnet.Timer): the
	// wakeup chain re-arms a single pinned event struct instead of
	// scheduling a fresh one per iteration.
	timer *simnet.Timer

	// Construction inputs, retained so Restart can rebuild the loop
	// after a crash with the same dependencies (and, crucially, the
	// same rng stream — pacing continues deterministically).
	grp      *dprcore.Group
	params   dprcore.Params
	meanWait float64
	sender   dprcore.Sender
	rng      *xrand.Rand

	stopped bool
	started bool
	crashed bool
	// wakeupPending tracks whether a scheduled step event is in the
	// queue, so Restart never starts a second wakeup chain while the old
	// one is still in flight (a pending wakeup survives a short outage
	// and simply continues the chain).
	wakeupPending bool
}

// newRanker builds a ranker for grp with the resolved per-loop mean
// wait in virtual time units (build draws it from [T1, T2]). The rng
// must be private to this ranker.
func newRanker(grp *dprcore.Group, p dprcore.Params, meanWait float64, sim *simnet.Simulator, sender dprcore.Sender, rng *xrand.Rand) (*ranker, error) {
	if sim == nil {
		return nil, fmt.Errorf("ranker: nil simulator")
	}
	loop, err := dprcore.NewLoop(grp, p, meanWait, sender, rng)
	if err != nil {
		return nil, err
	}
	rk := &ranker{
		loop: loop, sim: sim,
		grp: grp, params: p, meanWait: meanWait, sender: sender, rng: rng,
	}
	rk.timer = sim.NewComputeTimer(rk.step)
	return rk, nil
}

// Group returns the ranker's page group.
func (rk *ranker) Group() *dprcore.Group { return rk.loop.Group() }

// Ranks returns the ranker's current rank vector. The slice is live;
// callers must copy before mutating or crossing a simulation step.
func (rk *ranker) Ranks() vecmath.Vec { return rk.loop.Ranks() }

// Loops returns how many main-loop iterations the ranker has executed.
func (rk *ranker) Loops() int64 { return rk.loop.Loops() }

// Start schedules the ranker's first loop after its random initial
// wait. Rankers start at independent random times, per the paper's
// asynchrony model.
func (rk *ranker) Start() {
	if rk.started {
		return
	}
	rk.started = true
	rk.scheduleNext()
}

// Stop prevents any further loops from being scheduled. In-flight
// events still drain.
func (rk *ranker) Stop() { rk.stopped = true }

// Crash kills the ranker abruptly — its loop stops until Restart
// replaces it — and the engine takes its host down with it.
func (rk *ranker) Crash() { rk.crashed = true }

// Restart brings a crashed ranker back with a fresh loop, restored from
// snapshot when non-nil (a checkpoint, or its loop's Snapshot at the
// crash) and cold (R0 = 0) otherwise. The rebuilt loop reuses the
// ranker's rng stream, so a seeded schedule stays deterministic across
// crash/restart cycles.
func (rk *ranker) Restart(snapshot []byte) error {
	if !rk.crashed {
		return fmt.Errorf("ranker %d: Restart without Crash", rk.Group().Index)
	}
	loop, err := dprcore.NewLoop(rk.grp, rk.params, rk.meanWait, rk.sender, rk.rng)
	if err != nil {
		return err
	}
	if snapshot != nil {
		if err := loop.Restore(snapshot); err != nil {
			return err
		}
	}
	rk.loop = loop
	rk.crashed = false
	if rk.started && !rk.stopped && !rk.wakeupPending {
		rk.scheduleNext()
	}
	return nil
}

// Deliver is the transport callback: it records the chunk as the newest
// afferent contribution from its source group. A crashed ranker ignores
// deliveries (its host is down; anything already in flight is lost).
// The simulated fabric carries only what loops sent, so a chunk the loop
// refuses is a routing bug and panics.
func (rk *ranker) Deliver(chunk transport.ScoreChunk) {
	if rk.crashed {
		return
	}
	if err := rk.loop.Deliver(chunk); err != nil {
		panic(fmt.Sprintf("ranker %d: %v", rk.grp.Index, err))
	}
}

func (rk *ranker) scheduleNext() {
	rk.wakeupPending = true
	rk.timer.Schedule(rk.loop.NextWait())
}

// step is the compute half of one iteration: it runs the loop's
// ComputePhase — private vectors only, so the simulator may run it
// concurrently with other rankers' compute phases at the same virtual
// instant — and returns the commit half, which the simulator runs
// serially in event order.
func (rk *ranker) step() func() {
	rk.wakeupPending = false
	if rk.stopped || rk.crashed {
		// A crashed ranker's pending wakeup dies here; Restart
		// schedules a fresh one.
		return nil
	}
	rk.loop.ComputePhase()
	return rk.commit
}

// commit is the serial half: publish Y (randomness, sends) and
// reschedule.
func (rk *ranker) commit() {
	rk.loop.CommitPhase()
	rk.scheduleNext()
}
