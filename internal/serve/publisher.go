package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2prank/internal/dprcore"
	"p2prank/internal/telemetry"
)

// Publisher adapts a Store to the dprcore checkpoint seam: install it
// as Params.Checkpoint.Sink and every snapshot a ranker checkpoints is
// also published for serving — the checkpoint cadence becomes the
// serving staleness bound. The DPRS bytes are decoded (header + rank
// vector; the chunk tables don't matter to serving) and republished as
// an immutable ShardSnapshot.
//
// Save copies what it keeps, per the Checkpointer contract, and may be
// called concurrently by different rankers (live peers checkpoint from
// parallel goroutines).
type Publisher struct {
	store *Store
	next  dprcore.Checkpointer

	mu      sync.Mutex
	scratch []float64
}

// NewPublisher wraps store as a Checkpointer. next, when non-nil,
// receives every snapshot afterwards — tee a MemCheckpointer through
// to keep the raw snapshots too. A churn schedule that restarts from
// checkpoints needs the sink itself to be a *dprcore.MemCheckpointer
// (see dprcore.ChurnCheckpoints), so a Publisher sink serves
// cold-restart churn.
func NewPublisher(store *Store, next dprcore.Checkpointer) *Publisher {
	return &Publisher{store: store, next: next}
}

// Save implements dprcore.Checkpointer.
func (p *Publisher) Save(ranker int, round int64, data []byte) error {
	p.mu.Lock()
	group, _, ranks, err := dprcore.DecodeSnapshotRanks(data, p.scratch[:0])
	if err != nil {
		p.mu.Unlock()
		return fmt.Errorf("serve: publish ranker %d: %w", ranker, err)
	}
	p.scratch = ranks
	if group != ranker {
		p.mu.Unlock()
		return fmt.Errorf("serve: ranker %d checkpointed a snapshot of group %d", ranker, group)
	}
	_, err = p.store.Publish(ranker, round, ranks)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if p.next != nil {
		return p.next.Save(ranker, round, data)
	}
	return nil
}

// Tracker drives the Store's staleness accounting from the telemetry
// seam: install it as Params.Observer and every committed round ticks
// the ranker's shard one round staler, until the next publish resets
// it. Every hook reaches the embedded next observer — ComputeEnd after
// the tick, the rest by promotion — so a collector can ride along.
type Tracker struct {
	telemetry.Observer
	store *Store

	maxStale atomic.Int64
}

// NewTracker wraps store as an Observer in front of next (nil for
// none).
func NewTracker(store *Store, next telemetry.Observer) *Tracker {
	if next == nil {
		next = telemetry.Noop{}
	}
	return &Tracker{Observer: next, store: store}
}

// MaxObservedStaleness returns the largest staleness any shard reached
// at any point during the run — the monotone bound the churn tests
// assert against the checkpoint cadence.
func (t *Tracker) MaxObservedStaleness() int64 { return t.maxStale.Load() }

// SetClock forwards the runtime clock to the wrapped collector.
func (t *Tracker) SetClock(c telemetry.Clock) {
	if cs, ok := t.Observer.(telemetry.ClockSetter); ok {
		cs.SetClock(c)
	}
}

// SetHops forwards the hop-attribution function to the wrapped
// collector.
func (t *Tracker) SetHops(h func(src, dst int) int) {
	if hs, ok := t.Observer.(telemetry.HopsSetter); ok {
		hs.SetHops(h)
	}
}

// ComputeEnd implements telemetry.Observer: the commit that follows
// this compute phase makes the snapshot one round staler.
func (t *Tracker) ComputeEnd(ranker int, round int64, s telemetry.ComputeStats) {
	ticks := t.store.Advance(ranker)
	for {
		old := t.maxStale.Load()
		if ticks <= old || t.maxStale.CompareAndSwap(old, ticks) {
			break
		}
	}
	t.Observer.ComputeEnd(ranker, round, s)
}
