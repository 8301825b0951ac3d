package dprcore

import (
	"fmt"
	"math"
	"sync/atomic"

	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
)

// FaultConfig parameterizes a FaultSender. Each emitted chunk is
// independently dropped, delayed, or duplicated; the zero value
// injects nothing.
type FaultConfig struct {
	// DropProb drops the chunk outright — the wire analogue of the
	// paper's send-failure parameter p, applied below the algorithm so
	// the loop does not even know the send was lost.
	DropProb float64
	// DelayProb holds the chunk back and re-injects it later instead of
	// sending it now; the delay is exponentially distributed with mean
	// MeanDelay, scheduled on the runtime's Clock.
	DelayProb float64
	// MeanDelay is the mean re-injection delay, in the runtime's time
	// units (virtual units in-sim, nanoseconds live). Required when
	// DelayProb > 0.
	MeanDelay float64
	// DupProb sends the chunk twice — the receiver's staleness handling
	// must make the duplicate harmless.
	DupProb float64

	// PartitionFrac places that fraction of nodes on the minority side
	// of a seeded network partition. While the partition is active,
	// chunks crossing between the two sides are blackholed in both
	// directions; traffic within a side is untouched. Membership is a
	// pure hash of (Seed, node), so every FaultSender in a run — the
	// simulator's single injector or netpeer's per-peer ones — agrees on
	// the cut without sharing state, and so the serving tier can derive
	// shard reachability from the same function (the fault lattice).
	PartitionFrac float64
	// PartitionFrom / PartitionTo bound the partition window, in the
	// runtime's time units measured from the driver's epoch (see
	// NewStack): virtual time 0 in-sim, the live cluster's one epoch on
	// its peers — restarted ones included — and construction for a
	// FaultSender built on its own. The partition heals at
	// PartitionTo, never when it is +Inf or math.MaxFloat64. Required
	// when PartitionFrac > 0: To > From ≥ 0.
	PartitionFrom float64
	PartitionTo   float64

	// StraggleFrac marks that fraction of nodes as stragglers: the same
	// seeded nodes stay slow for the whole run (a persistent slowdown,
	// unlike DelayProb's independent per-chunk lottery).
	StraggleFrac float64
	// StraggleFactor is the fixed hold-back applied to every chunk a
	// straggler emits, in the runtime's time units. Required positive
	// when StraggleFrac > 0.
	StraggleFactor float64

	// Seed keys partition and straggler membership. Runs that differ
	// only in Seed cut the network differently; the drivers default it
	// from their run seed when left zero.
	Seed uint64
}

// Enabled reports whether the config injects any fault.
func (c FaultConfig) Enabled() bool {
	return c.DropProb > 0 || c.DelayProb > 0 || c.DupProb > 0 ||
		c.PartitionFrac > 0 || c.StraggleFrac > 0
}

// Validate checks the probabilities, delay, and fault-lattice windows.
// Every field must be finite — NaN compares false with everything, so
// a NaN probability would mean "never", and an infinite delay has no
// time.Duration — except PartitionTo, which may be +Inf: a partition
// that never heals, like math.MaxFloat64.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", c.DropProb}, {"DelayProb", c.DelayProb}, {"DupProb", c.DupProb},
		{"PartitionFrac", c.PartitionFrac}, {"StraggleFrac", c.StraggleFrac}} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("dprcore: fault %s %v outside [0,1]", p.name, p.v)
		}
	}
	for _, d := range []struct {
		name string
		v    float64
	}{{"MeanDelay", c.MeanDelay}, {"PartitionFrom", c.PartitionFrom}, {"StraggleFactor", c.StraggleFactor}} {
		if math.IsNaN(d.v) || math.IsInf(d.v, 0) {
			return fmt.Errorf("dprcore: fault %s %v is not finite", d.name, d.v)
		}
	}
	if math.IsNaN(c.PartitionTo) || math.IsInf(c.PartitionTo, -1) {
		return fmt.Errorf("dprcore: fault PartitionTo %v is neither finite nor +Inf (never heals)", c.PartitionTo)
	}
	if c.DelayProb > 0 && c.MeanDelay <= 0 {
		return fmt.Errorf("dprcore: DelayProb %v needs positive MeanDelay, got %v", c.DelayProb, c.MeanDelay)
	}
	if c.PartitionFrac > 0 {
		if c.PartitionFrom < 0 || c.PartitionTo <= c.PartitionFrom {
			return fmt.Errorf("dprcore: partition window [%v,%v) invalid, need 0 <= From < To",
				c.PartitionFrom, c.PartitionTo)
		}
	}
	if c.StraggleFrac > 0 && c.StraggleFactor <= 0 {
		return fmt.Errorf("dprcore: StraggleFrac %v needs positive StraggleFactor, got %v",
			c.StraggleFrac, c.StraggleFactor)
	}
	return nil
}

// latticeHash01 maps (seed, node, salt) to [0,1) with a splitmix64
// finalizer. It is the whole shared state of the fault lattice: pure,
// so independent injectors and the serving tier agree on membership,
// and RNG-free, so partition/straggler checks never perturb the
// drop/delay/dup streams.
func latticeHash01(seed uint64, node int, salt uint64) float64 {
	x := seed ^ salt ^ uint64(node)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

const (
	saltPartition = 0x70617274 // "part"
	saltStraggle  = 0x736c6f77 // "slow"
)

// PartitionMinority reports whether node sits on the minority side of
// the configured partition. False whenever PartitionFrac is zero.
func (c FaultConfig) PartitionMinority(node int) bool {
	return c.PartitionFrac > 0 && latticeHash01(c.Seed, node, saltPartition) < c.PartitionFrac
}

// MajorityNode returns the lowest of nodes 0..k-1 on the majority side
// of the partition — where a serving frontend sits, so the minority is
// what drops out of its fan-outs. When every node is on the minority
// side nothing is cut, and it returns 0: always a node on the ring.
func (c FaultConfig) MajorityNode(k int) int {
	for n := 0; n < k; n++ {
		if !c.PartitionMinority(n) {
			return n
		}
	}
	return 0
}

// Straggler reports whether node is one of the seeded stragglers.
// False whenever StraggleFrac is zero.
func (c FaultConfig) Straggler(node int) bool {
	return c.StraggleFrac > 0 && latticeHash01(c.Seed, node, saltStraggle) < c.StraggleFrac
}

// PartitionActiveAt reports whether the partition is up at a time
// measured from the injector's epoch.
func (c FaultConfig) PartitionActiveAt(sinceEpoch float64) bool {
	return c.PartitionFrac > 0 && sinceEpoch >= c.PartitionFrom && sinceEpoch < c.PartitionTo
}

// FaultSender wraps a Sender with deterministic message faults. Both
// stacks use it unchanged: in-sim the Clock is the simulator (virtual
// delays, seeded rng, bit-reproducible runs), live it is the wall
// clock. Faults draw from their own RNG stream so enabling them never
// perturbs the loop's randomness.
//
// Send must be called from commit (serial) context, like the Sender it
// wraps; delayed re-injections fire on the Clock's callback context,
// so the inner Sender must accept sends from there (the simulator's
// event goroutine; a timer goroutine for netpeer's self-locking
// outbox).
type FaultSender struct {
	inner Sender
	clock Clock
	rng   RNG
	cfg   FaultConfig
	// obs, when set, is notified of every injected fault. Nil-checked
	// like the loop's observer: no observer, no extra work.
	obs telemetry.Observer
	// rec, when the wrapped sender exposes it, is told about every drop
	// so transport stats keep injected loss separate from send-time
	// drops (see transport.Stats.FaultDrops).
	rec dropRecorder

	// epoch is the clock reading partition windows are measured from:
	// construction, unless NewStack put it on the driver's epoch, so the
	// same config means the same thing on the simulator's virtual axis
	// and the live cluster's wall clock.
	epoch float64

	// counts is indexed by telemetry.FaultKind.
	counts [telemetry.NumFaultKinds]atomic.Int64
}

// FaultStats counts the faults an injector applied.
type FaultStats struct {
	// Dropped is the number of chunks discarded outright.
	Dropped int64
	// Delayed is the number of chunks held back and re-injected later.
	Delayed int64
	// Duplicated is the number of chunks sent twice.
	Duplicated int64
	// Partitioned is the number of chunks blackholed by an active
	// network partition.
	Partitioned int64
	// Straggled is the number of chunks straggler nodes held back.
	Straggled int64
}

// dropRecorder is the probe a wrapped sender may implement to account
// for chunks the fault injector discarded above it. *transport.Fabric
// implements it.
type dropRecorder interface {
	RecordFaultDrop(from int)
}

// NewFaultSender wraps inner. clock may be nil when DelayProb is zero;
// rng must be a stream private to this wrapper.
func NewFaultSender(inner Sender, clock Clock, rng RNG, cfg FaultConfig) (*FaultSender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil || rng == nil {
		return nil, fmt.Errorf("dprcore: nil dependency")
	}
	if (cfg.DelayProb > 0 || cfg.PartitionFrac > 0 || cfg.StraggleFrac > 0) && clock == nil {
		return nil, fmt.Errorf("dprcore: fault config %+v needs a Clock", cfg)
	}
	f := &FaultSender{inner: inner, clock: clock, rng: rng, cfg: cfg}
	if clock != nil {
		f.epoch = clock.Now()
	}
	if r, ok := inner.(dropRecorder); ok {
		f.rec = r
	}
	return f, nil
}

// Observe installs o as the fault-event observer (nil uninstalls).
// Call it before the first Send.
func (f *FaultSender) Observe(o telemetry.Observer) { f.obs = o }

// Send applies the configured faults to one chunk. Partition and
// straggler checks run first and are RNG-free (pure lattice hashes), so
// turning them on never shifts the drop/delay/dup draws of the streams
// below them.
func (f *FaultSender) Send(from int, chunk transport.ScoreChunk) error {
	if f.cfg.PartitionFrac > 0 && f.cfg.PartitionActiveAt(f.clock.Now()-f.epoch) &&
		f.cfg.PartitionMinority(from) != f.cfg.PartitionMinority(int(chunk.DstGroup)) {
		f.inject(from, telemetry.FaultPartition, true)
		return nil
	}
	if f.cfg.StraggleFrac > 0 && f.cfg.Straggler(from) {
		f.inject(from, telemetry.FaultStraggle, false)
		f.sendAfter(f.cfg.StraggleFactor, from, chunk)
		return nil
	}
	if f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb {
		f.inject(from, telemetry.FaultDrop, true)
		return nil
	}
	if f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb {
		f.inject(from, telemetry.FaultDelay, false)
		f.sendAfter(f.rng.Exp(f.cfg.MeanDelay), from, chunk)
		return nil
	}
	if err := f.inner.Send(from, chunk); err != nil {
		return err
	}
	if f.cfg.DupProb > 0 && f.rng.Float64() < f.cfg.DupProb {
		f.inject(from, telemetry.FaultDup, false)
		return f.inner.Send(from, chunk)
	}
	return nil
}

// inject counts one fault of kind on from's chunk and tells the
// observer; lost says the chunk is gone for good, which the wrapped
// sender's drop accounting also hears.
func (f *FaultSender) inject(from int, kind telemetry.FaultKind, lost bool) {
	f.counts[kind].Add(1)
	if lost && f.rec != nil {
		f.rec.RecordFaultDrop(from)
	}
	if f.obs != nil {
		f.obs.FaultInjected(from, kind)
	}
}

// sendAfter holds chunk back for d and then sends it. A held-back chunk
// that fails to send is simply lost — the algorithms tolerate loss and
// fresher scores follow.
func (f *FaultSender) sendAfter(d float64, from int, chunk transport.ScoreChunk) {
	f.clock.After(d, func() {
		if err := f.inner.Send(from, chunk); err != nil {
			return
		}
		_ = f.inner.Flush(from) // best-effort: loss is tolerated
	})
}

// Flush forwards to the wrapped sender.
func (f *FaultSender) Flush(from int) error { return f.inner.Flush(from) }

// Stats returns the injector's counters; a nil injector (faults off)
// counts nothing.
func (f *FaultSender) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:     f.counts[telemetry.FaultDrop].Load(),
		Delayed:     f.counts[telemetry.FaultDelay].Load(),
		Duplicated:  f.counts[telemetry.FaultDup].Load(),
		Partitioned: f.counts[telemetry.FaultPartition].Load(),
		Straggled:   f.counts[telemetry.FaultStraggle].Load(),
	}
}
