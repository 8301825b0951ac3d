// Package dprcore is the runtime-agnostic core of the paper's
// distributed page-ranking algorithms: one Loop type owns a page
// group's state (R, X, scratch, newest afferent chunks) and executes
// the DPR1/DPR2 main-loop body of §4.2, split into a ComputePhase
// (refresh X, update R — private state only) and a CommitPhase
// (publish Y, draw randomness) exactly as the simulator's two-phase
// event model requires.
//
// The paper's Theorems 4.1/4.2 analyze one update rule and prove it
// converges whether rankers run synchronously, asynchronously, or over
// a lossy network. That guarantee only holds if the *executed* rule is
// the analyzed one, so the rule lives here once and every runtime —
// the deterministic discrete-event simulator (internal/engine's ranker
// over internal/simnet) and the live TCP peers (internal/netpeer) — is a
// thin driver that decides only *when* the phases run and *where* the
// emitted chunks go. Runtimes plug in through four small interfaces:
// Clock (now/after), Sender (chunk emission), Waiter (inter-loop
// pause), and RNG (seeded randomness). Fault injection composes at the
// Sender boundary (see FaultSender), so robustness scenarios run
// identically in-sim and live.
//
// Determinism: nothing in this package reads the wall clock or global
// randomness; both enter only through the interfaces, which the
// simulator backs with virtual time and seeded streams (enforced by
// the p2plint norand/nowallclock analyzers).
package dprcore

import (
	"fmt"

	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
)

// Algorithm selects the distributed iteration style of §4.2.
type Algorithm int

const (
	// DPR1 runs GroupPageRank to convergence inside every loop before
	// publishing Y (Algorithm 3).
	DPR1 Algorithm = iota
	// DPR2 performs a single Jacobi step per loop and publishes Y
	// eagerly (Algorithm 4).
	DPR2
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case DPR1:
		return "DPR1"
	case DPR2:
		return "DPR2"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Clock abstracts a runtime's notion of time: the simulator supplies
// virtual time (*simnet.Simulator satisfies Clock directly), a live
// peer supplies the wall clock. Units are whatever the runtime's
// durations are expressed in (virtual units or nanoseconds); the core
// never mixes clocks, it only passes durations back to the runtime
// that drew them.
type Clock interface {
	// Now returns the current time.
	Now() float64
	// After schedules fn d time units from now.
	After(d float64, fn func())
}

// Sender is the emission surface a loop publishes Y through.
// *transport.Fabric implements it on the simulator side; netpeer backs
// it with a TCP outbox. Fault wrappers (FaultSender) compose here.
type Sender interface {
	// Send emits one score chunk from the given ranker index.
	Send(from int, chunk transport.ScoreChunk) error
	// Flush ships anything Send buffered for the given ranker.
	Flush(from int) error
}

// Waiter pauses a blocking loop driver between iterations. Wait blocks
// for d time units and reports whether the loop should keep running
// (false means the runtime is shutting the ranker down). Event-driven
// runtimes (the simulator) schedule the phases directly instead.
type Waiter interface {
	Wait(d float64) bool
}

// RNG is the randomness a loop draws: send-loss coin flips and
// exponential inter-loop waits. *xrand.Rand satisfies it; every loop
// must own a private stream.
type RNG interface {
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
	// Exp returns an exponentially distributed value with the given mean.
	Exp(mean float64) float64
}

// Params is the one shared configuration surface of the DPR loop
// layer. Every runtime config embeds it — engine.Config (simulator) and
// netpeer.ClusterConfig (TCP) — so the algorithm knobs are
// spelled identically everywhere and validated once, here. Runtime
// specifics (graph, overlay, network model) stay in the
// embedding configs; see DESIGN.md §9 for the full mapping.
type Params struct {
	// Alg selects DPR1 or DPR2.
	Alg Algorithm
	// Alpha is the real-link rank fraction (must match the Group's;
	// runtimes default it to 0.85).
	Alpha float64
	// SendProb is the probability that the Y vector for a destination
	// group is successfully sent in a loop (the paper's parameter p;
	// p = 1 means lossless; runtimes default it to 1).
	SendProb float64
	// T1 and T2 bound the per-loop mean waiting time, in the driving
	// runtime's time units (virtual units in-sim, nanoseconds live).
	// Each loop's mean is drawn uniformly from [T1, T2] by its runtime;
	// T1 = T2 pins every loop to the same mean. Runtime defaults differ
	// (engine: 15/15, the Figure 8 setting; netpeer: ClusterConfig.MeanWait,
	// 30ms, for a cluster and a lone Listen peer alike).
	T1, T2 float64
	// Fault injects deterministic message faults (drop/delay/duplicate)
	// at the Sender seam, below the algorithm's own SendProb loss — the
	// FaultSender both runtimes share. The zero value injects nothing.
	Fault FaultConfig
	// Reliable layers acknowledged delivery — retransmission with
	// exponential backoff — above the fault seam (see ReliableSender),
	// so retries are exercised under injected loss. A chunk still
	// unacked after six retries is abandoned; nothing suppresses later
	// rounds. The zero value disables it; enabling it draws jitter from
	// a private RNG stream and never perturbs the loop's.
	Reliable ReliableConfig
	// Checkpoint snapshots each loop's recoverable state on a round
	// cadence (see CheckpointConfig), enabling restart-from-checkpoint
	// after a crash. The zero value checkpoints nothing.
	Checkpoint CheckpointConfig
	// Observer receives telemetry at the loop's seams (compute phases,
	// chunk emissions, injected faults, milestones). Nil installs
	// nothing and keeps the hot path free of allocations and clock
	// reads; telemetry.Noop{} is behaviorally identical.
	Observer telemetry.Observer
}

// Defaults fills zero-valued algorithm fields with the shared defaults
// and the pacing bounds with the runtime's (t1, t2). Embedding configs
// call it from their own validation.
func (p *Params) Defaults(t1, t2 float64) {
	if p.Alpha == 0 {
		p.Alpha = 0.85
	}
	if p.SendProb == 0 {
		p.SendProb = 1
	}
	if p.T1 == 0 && p.T2 == 0 {
		p.T1, p.T2 = t1, t2
	}
}

// validateLoop checks the fields a single Loop consumes.
func (p *Params) validateLoop() error {
	if p.Alg != DPR1 && p.Alg != DPR2 {
		return fmt.Errorf("dprcore: unknown algorithm %d", int(p.Alg))
	}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("dprcore: alpha = %v, must be in (0,1)", p.Alpha)
	}
	if p.SendProb < 0 || p.SendProb > 1 {
		return fmt.Errorf("dprcore: SendProb %v outside [0,1]", p.SendProb)
	}
	return nil
}

// Validate checks the whole parameter set (loop fields, pacing range,
// fault spec). Runtimes call it after Defaults.
func (p *Params) Validate() error {
	if err := p.validateLoop(); err != nil {
		return err
	}
	if p.T1 < 0 || p.T2 < p.T1 {
		return fmt.Errorf("dprcore: wait range [%v, %v] invalid", p.T1, p.T2)
	}
	if err := p.Fault.Validate(); err != nil {
		return err
	}
	if err := p.Reliable.Validate(); err != nil {
		return err
	}
	return p.Checkpoint.Validate()
}
