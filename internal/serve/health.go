package serve

import (
	"fmt"
	"sync/atomic"

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
//
// Only the partition window depends on the clock, so each shard's
// clock-free bits (far side, straggler) are hashed once, into a table
// grown copy-on-write up to the highest shard asked about; a read of a
// shard already in it is one load, one clock read and the window test.
type LatticeHealth struct {
	cfg dprcore.FaultConfig
	// home is the frontend's own side of the partition.
	home bool
	now  func() float64
	// table[s] holds shard s's latticeCut and latticeSlow bits.
	table atomic.Pointer[[]uint8]
}

// The clock-free lattice bits of a shard.
const (
	// latticeCut: the shard is on the other side of the partition from
	// the frontend, so unreachable while the window is open.
	latticeCut uint8 = 1 << iota
	// latticeSlow: the shard is a straggler.
	latticeSlow
)

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
	h := &LatticeHealth{cfg: cfg, home: cfg.PartitionMinority(at), now: now}
	h.table.Store(new([]uint8))
	return h, nil
}

// ShardState implements Health.
//
//p2plint:hotpath
func (h *LatticeHealth) ShardState(shard int) ShardState {
	var b uint8
	if t := *h.table.Load(); uint(shard) < uint(len(t)) {
		b = t[shard]
	} else {
		b = h.grow(shard)
	}
	if b&latticeCut != 0 {
		if now := h.now(); now >= h.cfg.PartitionFrom && now < h.cfg.PartitionTo {
			return ShardUnreachable
		}
	}
	if b&latticeSlow != 0 {
		return ShardSlow
	}
	return ShardHealthy
}

// lattice hashes shard's clock-free bits. A cut bit needs a partition,
// so the window test alone decides reachability.
func (h *LatticeHealth) lattice(shard int) uint8 {
	var b uint8
	if h.cfg.PartitionMinority(shard) != h.home {
		b |= latticeCut
	}
	if h.cfg.Straggler(shard) {
		b |= latticeSlow
	}
	return b
}

// grow returns shard's bits when the table does not cover it, first
// installing a table that does: at least double the old one, the old
// entries copied and the new ones hashed. A racing grower may install
// first; the loser retries over the winner's table, so the table only
// ever grows and an entry, once in it, never changes. A negative shard
// is in no table and is hashed on each read.
func (h *LatticeHealth) grow(shard int) uint8 {
	if shard < 0 {
		return h.lattice(shard)
	}
	for {
		old := h.table.Load()
		if shard < len(*old) {
			return (*old)[shard]
		}
		//p2plint:allow hotalloc -- the table grows once per doubling of the highest shard asked about
		t := make([]uint8, max(2*len(*old), shard+1))
		copy(t, *old)
		for s := len(*old); s < len(t); s++ {
			t[s] = h.lattice(s)
		}
		if h.table.CompareAndSwap(old, &t) {
			return t[shard]
		}
	}
}

// Admission bounds the load the frontend accepts. The zero Admission
// admits everything.
type Admission struct {
	// StalenessBound sheds queries while the worst staleness over the
	// REACHABLE shards exceeds it, in rounds. Set it to the checkpoint
	// cadence's 2·Every−1 guarantee: beyond that the tier is serving
	// ranks it can no longer bound, and refusing load is what lets the
	// publishers catch up. Partitioned shards are excluded — their
	// staleness is reported as lost coverage, not used to refuse the
	// queries the reachable side can still answer. Zero disables it.
	StalenessBound int64
}

// validate checks the admission bound.
func (a Admission) validate() error {
	if a.StalenessBound < 0 {
		return fmt.Errorf("serve: Admission.StalenessBound %d negative", a.StalenessBound)
	}
	return nil
}
