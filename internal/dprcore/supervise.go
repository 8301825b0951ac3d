package dprcore

import (
	"fmt"
	"sync/atomic"
)

// SupervisorConfig parameterizes a Supervisor. Times are in the driving
// runtime's units (nanoseconds for netpeer's wall clock).
type SupervisorConfig struct {
	// ProbeEvery is the liveness probe cadence (required, > 0). A
	// failed restart of a ranker is retried after ProbeEvery, the wait
	// doubling with each further failure up to maxBackoffProbes probes.
	ProbeEvery float64
}

const (
	// maxBackoffProbes caps a ranker's restart backoff at this many
	// probe intervals.
	maxBackoffProbes = 16
	// supervisorJitter stretches every probe wait and backoff by a
	// uniform factor in [1, 1+supervisorJitter) from the supervisor's
	// private RNG stream, so a fleet of supervisors does not probe in
	// lockstep.
	supervisorJitter = 0.1
)

// Supervised is the set a Supervisor watches. The netpeer cluster
// implements it: Alive combines socket liveness with the reliable
// layer's missed-ack breaker, Restart rebuilds the peer from its last
// checkpoint file and re-dials the mesh.
type Supervised interface {
	// NumRankers is the fixed size of the supervised set.
	NumRankers() int
	// Alive reports whether ranker i currently looks healthy.
	Alive(i int) bool
	// Restart brings a dead ranker back. It is called from the
	// supervisor's driving context and may block (dial, file IO).
	Restart(i int) error
}

// Supervisor probes a Supervised set on a jittered cadence and restarts
// rankers that look dead, backing off per ranker when restarts fail.
// Like the loop core it is runtime-agnostic and deterministic: time
// comes only from the injected Clock and Waiter, jitter only from the
// injected RNG (no wall clock, no global randomness — same p2plint
// scope as the rest of this package).
type Supervisor struct {
	set   Supervised
	clock Clock
	rng   RNG
	cfg   SupervisorConfig

	// Per-ranker restart state, touched only from Run's context.
	failures []int
	nextTry  []float64

	restarts atomic.Int64
}

// NewSupervisor builds a supervisor over set. The rng must be a private
// stream.
func NewSupervisor(set Supervised, clock Clock, rng RNG, cfg SupervisorConfig) (*Supervisor, error) {
	if set == nil || clock == nil || rng == nil {
		return nil, fmt.Errorf("dprcore: nil dependency")
	}
	if cfg.ProbeEvery <= 0 {
		return nil, fmt.Errorf("dprcore: supervisor ProbeEvery %v must be positive", cfg.ProbeEvery)
	}
	n := set.NumRankers()
	return &Supervisor{
		set:      set,
		clock:    clock,
		rng:      rng,
		cfg:      cfg,
		failures: make([]int, n),
		nextTry:  make([]float64, n),
	}, nil
}

// jittered stretches d by the jitter fraction.
func (s *Supervisor) jittered(d float64) float64 {
	return d * (1 + supervisorJitter*s.rng.Float64())
}

// Run probes until w.Wait reports shutdown. It owns the restart state,
// so run it from exactly one goroutine.
func (s *Supervisor) Run(w Waiter) {
	for w.Wait(s.jittered(s.cfg.ProbeEvery)) {
		s.Probe()
	}
}

// Probe scans the set once, restarting dead rankers whose backoff has
// passed. Exposed for event-driven drivers and tests; Run calls it on
// the cadence.
func (s *Supervisor) Probe() {
	now := s.clock.Now()
	for i := 0; i < s.set.NumRankers(); i++ {
		if s.set.Alive(i) {
			s.failures[i] = 0
			s.nextTry[i] = 0
			continue
		}
		if now < s.nextTry[i] {
			continue // still backing off from a failed restart
		}
		if err := s.set.Restart(i); err != nil {
			s.failures[i]++
			b := s.cfg.ProbeEvery
			for f := 1; f < s.failures[i] && b < maxBackoffProbes*s.cfg.ProbeEvery; f++ {
				b *= 2
			}
			s.nextTry[i] = now + s.jittered(b)
			continue
		}
		s.failures[i] = 0
		s.nextTry[i] = 0
		s.restarts.Add(1)
	}
}

// Restarts returns how many successful restarts the supervisor
// performed. Safe to read while Run is going.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }
