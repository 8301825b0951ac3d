// Package telemetry is the observability seam of the DPR runtime: an
// Observer interface that plugs into the loop core (dprcore.Loop and
// dprcore.FaultSender) alongside Clock/Sender/Waiter/RNG, plus the one
// Collector both runtimes attach: counters, last values and maxima
// behind a mutex, read back as a deterministic Summary, as Prometheus
// text rendered from the families table, and as a bounded JSONL event
// trace (the last two served by Server).
//
// The paper's §4.4 cost model (messages ≈ (h+1)·N², data ≈ lW + hrN²)
// and Table 1 are claims about runtime traffic; the hooks here measure
// them where they happen — compute-phase solves, commit-phase chunk
// emissions, injected faults — instead of re-deriving them from
// experiment curves.
//
// Layering: this package imports nothing from the repository, so the
// loop core can depend on it without cycles. Hooks carry scalars and
// small value structs only; an Observer must never feed information
// back into the algorithm. Determinism: the package never reads the
// wall clock or global randomness (enforced by p2plint); time enters
// only through the Clock interface, which the simulator backs with
// virtual time and netpeer with its wall-clock adapter.
//
// Hot-path contract: runtimes install an Observer by storing it in a
// field that is nil-checked before every hook, so a run without an
// observer (or with the explicit Noop) neither allocates nor branches
// into this package beyond that one comparison.
package telemetry

// Clock is the one time source an observer may consult. Units are the
// driving runtime's (virtual units in-sim, nanoseconds live); the
// collectors only difference and aggregate them, never interpret them.
type Clock interface {
	// Now returns the current time.
	Now() float64
}

// ClockSetter is implemented by collectors that want timestamps. The
// runtime injects its clock after construction (the simulator is built
// inside engine.Run, so the caller cannot wire it up front).
type ClockSetter interface {
	SetClock(Clock)
}

// HopsSetter is implemented by collectors that attribute overlay hop
// counts to emitted chunks. The runtime injects a (src, dst) → hops
// function derived from its overlay — exact route lengths at every
// cluster size (transport.RouteHops, an allocation-free overlay.Hops
// walk), 1 under direct transmission; chunks count 1 hop without one.
type HopsSetter interface {
	SetHops(func(src, dst int) int)
}

// Attach hands obs the runtime's clock and hop function, each if obs
// asks for it. It is the one call both runtimes wire an observer with,
// so neither names a collector type.
func Attach(obs Observer, clock Clock, hops func(src, dst int) int) {
	if cs, ok := obs.(ClockSetter); ok {
		cs.SetClock(clock)
	}
	if hs, ok := obs.(HopsSetter); ok {
		hs.SetHops(hops)
	}
}

// ComputeStats summarizes one compute phase (refresh X, update R).
type ComputeStats struct {
	// InnerIterations is the number of inner solver steps: DPR1's
	// GroupPageRank iteration count, always 1 for DPR2's single step.
	InnerIterations int
	// Residual is the last inner step's ‖ΔR‖₁ (DPR1) or the step's
	// ‖ΔR‖∞ (DPR2, computed only when an observer is installed).
	Residual float64
}

// ChunkStats describes one score chunk handed to the Sender during a
// commit phase. Byte and hop attribution happen collector-side (bytes
// from Links × the wire size model, hops from the injected hop
// function), keeping the loop core ignorant of wire formats and
// overlays.
type ChunkStats struct {
	// Dst is the destination group index.
	Dst int
	// Round is the emitting loop's iteration count.
	Round int64
	// Entries is the number of merged score entries in the chunk.
	Entries int
	// Links is the number of inter-group links the chunk aggregates
	// (the paper's W contribution of this emission).
	Links int64
}

// FaultKind labels one injected message fault.
type FaultKind uint8

const (
	// FaultDrop is a chunk discarded outright.
	FaultDrop FaultKind = iota
	// FaultDelay is a chunk held back and re-injected later.
	FaultDelay
	// FaultDup is a chunk sent twice.
	FaultDup
	// FaultPartition is a chunk blackholed because sender and receiver
	// sit on opposite sides of an active network partition.
	FaultPartition
	// FaultStraggle is a chunk held back by a straggler node's
	// persistent slowdown factor.
	FaultStraggle

	// NumFaultKinds is the number of fault kinds: the length of every
	// per-kind counter array.
	NumFaultKinds = 5
)

var faultNames = [NumFaultKinds]string{"drop", "delay", "dup", "partition", "straggle"}

// String returns the fault label used in metrics and traces.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "unknown"
}

// Milestone is a convergence checkpoint emitted by the drivers' one
// sampling step (dprcore.Deployment.Sample), not by the loop core.
type Milestone struct {
	// Time is the driver's time of the checkpoint (virtual units
	// in-sim, nanoseconds since the live cluster's epoch).
	Time float64
	// RelErr is the global relative error against centralized PageRank.
	RelErr float64
	// MeanLoops is the mean main-loop count across rankers.
	MeanLoops float64
	// Converged reports whether this checkpoint reached the run's
	// target error.
	Converged bool
}

// Observer receives telemetry at the loop core's seams. Hooks for one
// ranker are serialized by its driver, but different rankers' compute
// hooks may fire concurrently (the simulator batches same-instant
// compute phases onto a worker pool; live peers run in parallel
// goroutines), so implementations must be safe for per-ranker
// concurrency. Implementations must not call back into the runtime.
type Observer interface {
	// ComputeStart fires when ranker begins the compute phase of round.
	ComputeStart(ranker int, round int64)
	// ComputeEnd fires when the compute phase finishes.
	ComputeEnd(ranker int, round int64, s ComputeStats)
	// ChunkSent fires for every chunk the ranker's commit phase hands
	// to its Sender (after the algorithm's own SendProb loss, before
	// any injected transport fault).
	ChunkSent(ranker int, c ChunkStats)
	// FaultInjected fires when the fault seam drops, delays, or
	// duplicates one of the ranker's chunks.
	FaultInjected(ranker int, kind FaultKind)
	// ChunkRetried fires when the reliable-delivery seam retransmits a
	// chunk whose ack timed out (attempt counts retransmissions of that
	// chunk, starting at 1). It may fire from a timer context, not just
	// the ranker's commit context.
	ChunkRetried(ranker int, dst int, attempt int)
	// AckReceived fires when a cumulative ack from dst clears the
	// ranker's pending chunk for that destination (acks that confirm
	// nothing new do not fire).
	AckReceived(ranker int, dst int, round int64)
	// Recovered fires when a ranker restores its loop state from a
	// checkpoint after a crash; round is the restored loop count.
	Recovered(ranker int, round int64)
	// Milestone fires at convergence checkpoints.
	Milestone(m Milestone)
}

// Noop is the explicit do-nothing Observer. Installing it is
// behaviorally identical to installing nothing: all hooks are empty and
// allocation-free (value structs, zero-size receiver).
type Noop struct{}

// ComputeStart implements Observer.
func (Noop) ComputeStart(int, int64) {}

// ComputeEnd implements Observer.
func (Noop) ComputeEnd(int, int64, ComputeStats) {}

// ChunkSent implements Observer.
func (Noop) ChunkSent(int, ChunkStats) {}

// FaultInjected implements Observer.
func (Noop) FaultInjected(int, FaultKind) {}

// ChunkRetried implements Observer.
func (Noop) ChunkRetried(int, int, int) {}

// AckReceived implements Observer.
func (Noop) AckReceived(int, int, int64) {}

// Recovered implements Observer.
func (Noop) Recovered(int, int64) {}

// Milestone implements Observer.
func (Noop) Milestone(Milestone) {}
