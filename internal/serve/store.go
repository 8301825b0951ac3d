// Package serve is the query-serving tier: rankers publish versioned,
// immutable rank snapshots into a Store, and a query front end answers
// conjunctive top-k searches by merging per-shard partial results over
// the overlay — the read path the ROADMAP's "millions of users" north
// star needs, with served-rank staleness as a first-class quantity.
//
// The serving contract is snapshot-based, not live-vector reads: a
// ranker's in-progress R changes every round, so queries read the last
// published snapshot instead. Publication rides the PR 5 checkpoint
// seam — a Publisher decodes the same DPRS-encoded snapshots the
// Checkpointer interface carries — so the checkpoint cadence IS the
// staleness bound: a shard is never more than Checkpoint.Every
// committed rounds behind what queries see.
package serve

import (
	"fmt"
	"sync/atomic"

	"p2prank/internal/telemetry"
)

// ShardSnapshot is one shard's published rank state. Immutable after
// publication: readers hold the pointer, never the slot, so a
// concurrent publish can never tear a version out from under a query.
type ShardSnapshot struct {
	// Shard is the owning ranker/group index.
	Shard int
	// Version is the store-global publish sequence number — strictly
	// monotone across all publishes, so it orders snapshots even when
	// a cold restart resets a ranker's round counter.
	Version int64
	// Round is the committed loop round the scores were taken at.
	Round int64
	// Scores are the shard's local-page-indexed ranks (the group's
	// Pages order). Readers must not modify them.
	Scores []float64
}

type shardSlot struct {
	snap atomic.Pointer[ShardSnapshot]
	// prev is the replica: the snapshot the last publish displaced.
	// Hedged reads fall back to it when the primary misses its
	// deadline — one publish older, but immediately available.
	prev atomic.Pointer[ShardSnapshot]
	// ticks counts committed rounds since the last publish — the
	// shard's current staleness in rounds.
	ticks atomic.Int64
}

// Store holds the newest published snapshot per shard behind atomic
// pointers. Queries on any goroutine read consistent per-shard state
// without locks; publishes to the same shard must be serialized (they
// come from one ranker's commit context), publishes to different
// shards may run concurrently.
type Store struct {
	// version counts versions minted, installed the publishes whose
	// snapshot is in place. A publish mints, then installs: the two are
	// equal exactly when no publish is between its halves, which is
	// when the minted version names the state a query would scan.
	version   atomic.Int64
	installed atomic.Int64
	// advances counts Advance calls: staleness ages between publishes,
	// so a cached answer's staleness is good for one reading of this.
	advances atomic.Int64
	shards   []shardSlot
	tel      *telemetry.Collector
}

// NewStore builds a store for the given shard count with nothing
// published yet.
func NewStore(shards int) (*Store, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("serve: store needs a positive shard count, got %d", shards)
	}
	return &Store{shards: make([]shardSlot, shards)}, nil
}

// SetTelemetry installs the collector publishes are reported to (nil:
// none). Call before concurrent use.
func (s *Store) SetTelemetry(c *telemetry.Collector) { s.tel = c }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Version returns the global publish counter: the version the next
// publish will mint minus nothing — 0 means nothing published yet.
func (s *Store) Version() int64 { return s.version.Load() }

// Publish installs a new snapshot for shard: scores are copied (the
// caller's buffer is typically reused), a fresh global version is
// minted, and the shard's staleness ticks reset to zero. Returns the
// minted version.
func (s *Store) Publish(shard int, round int64, scores []float64) (int64, error) {
	if shard < 0 || shard >= len(s.shards) {
		return 0, fmt.Errorf("serve: publish to shard %d of %d", shard, len(s.shards))
	}
	cp := make([]float64, len(scores))
	copy(cp, scores)
	v := s.mint()
	s.install(&ShardSnapshot{Shard: shard, Version: v, Round: round, Scores: cp})
	if s.tel != nil {
		s.tel.SnapshotPublished(shard, v, round)
	}
	return v, nil
}

// mint is a publish's first half: it hands out the next global version.
func (s *Store) mint() int64 { return s.version.Add(1) }

// install is a publish's second half: it swaps the minted snapshot in
// and, last, counts the publish as installed.
func (s *Store) install(snap *ShardSnapshot) {
	slot := &s.shards[snap.Shard]
	if old := slot.snap.Load(); old != nil {
		slot.prev.Store(old)
	}
	slot.snap.Store(snap)
	slot.ticks.Store(0)
	s.installed.Add(1)
}

// settledVersion returns the minted version and whether every minted
// version is installed. Installed is read first: a publish that slips
// between the two loads can only make them differ, so "settled" is
// never reported across one.
//
//p2plint:hotpath
func (s *Store) settledVersion() (v int64, settled bool) {
	inst := s.installed.Load()
	v = s.version.Load()
	return v, inst == v
}

// Snapshot returns shard's newest published snapshot, or nil if the
// shard has never published.
//
//p2plint:hotpath
func (s *Store) Snapshot(shard int) *ShardSnapshot {
	return s.shards[shard].snap.Load()
}

// Replica returns shard's previous published snapshot — the hedged
// read's fallback — or nil before the second publish.
//
//p2plint:hotpath
func (s *Store) Replica(shard int) *ShardSnapshot {
	return s.shards[shard].prev.Load()
}

// Advance records one committed-but-unpublished round for shard and
// returns the shard's new staleness in rounds. Out-of-range shards
// (rankers beyond the serving tier) are ignored.
func (s *Store) Advance(shard int) int64 {
	if shard < 0 || shard >= len(s.shards) {
		return 0
	}
	// The tick lands before the count moves: a reader that loads the
	// count first sees every tick the count stands for.
	t := s.shards[shard].ticks.Add(1)
	s.advances.Add(1)
	return t
}

// Staleness returns how many committed rounds behind the live
// computation shard's published snapshot is.
//
//p2plint:hotpath
func (s *Store) Staleness(shard int) int64 {
	return s.shards[shard].ticks.Load()
}

// MaxStaleness returns the worst per-shard staleness right now.
func (s *Store) MaxStaleness() int64 {
	var max int64
	for i := range s.shards {
		if t := s.shards[i].ticks.Load(); t > max {
			max = t
		}
	}
	return max
}
