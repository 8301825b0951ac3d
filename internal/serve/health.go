package serve

import (
	"fmt"

	"p2prank/internal/dprcore"
)

// ShardState is a shard's reachability as the query fan-out sees it.
type ShardState uint8

const (
	// ShardHealthy answers from its primary snapshot within deadline.
	ShardHealthy ShardState = iota
	// ShardSlow misses the per-shard deadline on the primary read; the
	// querier hedges to the replica snapshot instead of waiting.
	ShardSlow
	// ShardUnreachable cannot answer at all (e.g. the far side of a
	// network partition); the querier skips it and reports the lost
	// coverage instead of failing the query.
	ShardUnreachable
)

// String returns the state label used in logs and tables.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardSlow:
		return "slow"
	case ShardUnreachable:
		return "unreachable"
	}
	return "unknown"
}

// Health reports per-shard reachability to the query fan-out. The
// frontend consults it on every shard read, so implementations must be
// cheap and safe for concurrent use; nil Health means every shard is
// assumed healthy (the pre-degraded-serving behavior). Implementations
// must not call back into the frontend or store.
type Health interface {
	ShardState(shard int) ShardState
}

// LatticeHealth derives shard health from the same seeded fault
// lattice the dprcore.FaultSender injects from: a shard on the far
// side of the active partition (relative to the node the frontend runs
// at) is unreachable, a straggler shard is slow. Compute faults and
// serving degradation therefore agree on which nodes are in trouble
// without any health-check protocol — membership is a pure hash both
// layers evaluate.
type LatticeHealth struct {
	cfg dprcore.FaultConfig
	at  int
	now func() float64
}

// NewLatticeHealth builds a health source for a frontend located at
// node `at`. now must return the time since the fault injectors'
// epoch, in the runtime's units — the axis the config's partition
// window is expressed on (a live cluster's Cluster.Elapsed).
func NewLatticeHealth(cfg dprcore.FaultConfig, at int, now func() float64) (*LatticeHealth, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if now == nil {
		return nil, fmt.Errorf("serve: LatticeHealth needs a time source")
	}
	return &LatticeHealth{cfg: cfg, at: at, now: now}, nil
}

// ShardState implements Health.
func (h *LatticeHealth) ShardState(shard int) ShardState {
	if h.cfg.PartitionActiveAt(h.now()) &&
		h.cfg.PartitionMinority(shard) != h.cfg.PartitionMinority(h.at) {
		return ShardUnreachable
	}
	if h.cfg.Straggler(shard) {
		return ShardSlow
	}
	return ShardHealthy
}

// Admission bounds the load the frontend accepts. Zero values disable
// each check, so the zero Admission admits everything.
type Admission struct {
	// MaxInflight caps concurrently served queries; the query past the
	// cap is shed with ErrOverloaded instead of queued behind work the
	// server cannot keep up with.
	MaxInflight int64
	// StalenessBound sheds queries while the worst staleness over the
	// REACHABLE shards exceeds it, in rounds. Set it to the checkpoint
	// cadence's 2·Every−1 guarantee: beyond that the tier is serving
	// ranks it can no longer bound, and refusing load is what lets the
	// publishers catch up. Partitioned shards are excluded — their
	// staleness is reported as lost coverage, not used to refuse the
	// queries the reachable side can still answer.
	StalenessBound int64
}

// validate checks the admission knobs.
func (a Admission) validate() error {
	if a.MaxInflight < 0 {
		return fmt.Errorf("serve: Admission.MaxInflight %d negative", a.MaxInflight)
	}
	if a.StalenessBound < 0 {
		return fmt.Errorf("serve: Admission.StalenessBound %d negative", a.StalenessBound)
	}
	return nil
}

// enabled reports whether any admission check is active.
func (a Admission) enabled() bool {
	return a.MaxInflight > 0 || a.StalenessBound > 0
}
