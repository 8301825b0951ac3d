package dprcore

import (
	"fmt"
	"math"
	"sync"

	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
)

// ReliableConfig parameterizes a ReliableSender. A positive Timeout
// enables the layer; the zero value disables it.
type ReliableConfig struct {
	// Timeout is the base retransmission timeout in the runtime's time
	// units (virtual units in-sim, nanoseconds live): an unacked chunk
	// is re-sent after roughly this long. Positive enables the layer.
	// The backoff, cap, jitter, attempt bound and cooldown are the
	// fixed constants below, scaled by Timeout where they are times.
	Timeout float64
}

// The reliable layer's fixed tuning, relative to Timeout.
const (
	// relBackoff multiplies the timeout after every expiry.
	relBackoff = 2
	// relMaxTimeout caps the backed-off timeout, in Timeouts.
	relMaxTimeout = 16
	// relJitter stretches each deadline by a uniform factor in
	// [1, 1+relJitter) drawn from the layer's private RNG stream.
	relJitter = 0.1
	// relMaxAttempts bounds retransmissions of one chunk; a destination
	// that outlives them trips the dead-peer circuit breaker.
	relMaxAttempts = 6
	// relCooldown is how long, in Timeouts, an open circuit suppresses
	// traffic to a presumed-dead peer before the next send probes it.
	relCooldown = 10
)

// Enabled reports whether the config turns the reliable layer on.
func (c ReliableConfig) Enabled() bool { return c.Timeout > 0 }

// Validate checks the timeout. The zero value is valid (disabled). It
// must be finite: the comparisons below are false for NaN, and an
// infinite timeout has no time.Duration.
func (c ReliableConfig) Validate() error {
	if math.IsNaN(c.Timeout) || math.IsInf(c.Timeout, 0) {
		return fmt.Errorf("dprcore: reliable Timeout %v is not finite", c.Timeout)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("dprcore: reliable Timeout %v negative", c.Timeout)
	}
	return nil
}

// ReliableStats aggregates a ReliableSender's counters.
type ReliableStats struct {
	// Retries is the number of retransmitted chunks.
	Retries int64
	// Acks is the number of acks that cleared a pending chunk.
	Acks int64
	// BreakerTrips counts circuits opened on presumed-dead peers.
	BreakerTrips int64
	// Suppressed counts sends swallowed while a circuit was open.
	Suppressed int64
}

// relSlot tracks the newest unacknowledged chunk from one ranker to one
// destination group. The loop's stale-round suppression makes chunk
// rounds the sequence numbers: a newer chunk to the same destination
// supersedes the pending one (the receiver would discard the old round
// anyway), so each slot holds at most one chunk.
type relSlot struct {
	from int
	dst  int

	chunk    transport.ScoreChunk
	round    int64
	active   bool    // an unacked chunk is pending
	attempts int     // retransmissions of the pending chunk
	timeout  float64 // current backed-off timeout
	nextAt   float64 // deadline of the next retransmission
	armed    bool    // a timer callback is in flight
	// brokenUntil, when in the future, means the circuit to dst is open:
	// the peer blew through relMaxAttempts without acking and sends are
	// suppressed until the cooldown passes.
	brokenUntil float64

	// check is the timer callback, built once per slot so re-arming a
	// retransmission timer allocates nothing.
	check func()
}

// ReliableSender wraps a Sender with acknowledged delivery: every chunk
// is tracked until the destination acks its round, retransmitted on
// timeout with exponential backoff and RNG-drawn jitter, and abandoned
// behind a circuit breaker once the peer looks dead. Both stacks use it
// unchanged — in-sim the Clock is the simulator (timers are serial
// virtual-time events, runs stay bit-reproducible), live it is the wall
// clock (timers fire on goroutines, the internal mutex serializes
// them). Compose it *above* a FaultSender so retransmissions are
// themselves subject to injected loss:
//
//	loop → ReliableSender → FaultSender → fabric/outbox
//
// Sequence numbers are the chunks' Round fields: rounds increase
// per (src, dst) stream and receivers already discard stale rounds, so
// a newer chunk supersedes the pending one and an ack for round r
// cumulatively covers everything at or before r.
type ReliableSender struct {
	inner Sender
	clock Clock
	rng   RNG
	cfg   ReliableConfig
	obs   telemetry.Observer

	mu    sync.Mutex
	slots [][]*relSlot // [from][dst], grown lazily, never shrunk
	stats ReliableStats

	// sendMu serializes every call into the wrapped sender. On the live
	// stack retransmission timers fire on their own goroutines, and the
	// inner sender may not be goroutine-safe (a FaultSender draws from a
	// single-stream RNG); in-sim timers are serial events and the lock
	// is uncontended. Kept separate from mu so a blocked downstream send
	// never stalls ack processing.
	sendMu sync.Mutex
}

// NewReliableSender wraps inner. The rng must be a stream private to
// this wrapper — jitter draws from it, never from the loop's stream, so
// enabling reliability does not perturb the algorithm's randomness.
func NewReliableSender(inner Sender, clock Clock, rng RNG, cfg ReliableConfig) (*ReliableSender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("dprcore: reliable sender needs positive Timeout")
	}
	if inner == nil || clock == nil || rng == nil {
		return nil, fmt.Errorf("dprcore: nil dependency")
	}
	return &ReliableSender{inner: inner, clock: clock, rng: rng, cfg: cfg}, nil
}

// Observe installs o as the retry/ack observer (nil uninstalls). Call
// it before the first Send.
func (s *ReliableSender) Observe(o telemetry.Observer) { s.obs = o }

// slot returns the (from, dst) slot, growing the table on first use.
// Callers hold mu.
func (s *ReliableSender) slot(from, dst int) *relSlot {
	for len(s.slots) <= from {
		s.slots = append(s.slots, nil)
	}
	row := s.slots[from]
	for len(row) <= dst {
		row = append(row, nil)
	}
	s.slots[from] = row
	sl := row[dst]
	if sl == nil {
		//p2plint:allow hotalloc -- slot memo warm-up, once per (from, dst) pair
		sl = &relSlot{from: from, dst: dst}
		//p2plint:allow hotalloc -- one timer closure per slot, reused by every re-arm
		sl.check = func() { s.expire(sl) }
		row[dst] = sl
	}
	return sl
}

// deadline sets the slot's next retransmission deadline d units out,
// stretched by the jitter draw. Callers hold mu.
func (s *ReliableSender) deadline(sl *relSlot, now, d float64) {
	sl.nextAt = now + d*(1+relJitter*s.rng.Float64())
}

// arm schedules the slot's timer callback for its deadline unless one
// is already in flight — at most one timer per slot exists at any time,
// so a send per round re-arms nothing and allocates nothing. Callers
// hold mu.
func (s *ReliableSender) arm(sl *relSlot, now float64) {
	if sl.armed {
		return
	}
	sl.armed = true
	d := sl.nextAt - now
	if d < 0 {
		d = 0
	}
	s.clock.After(d, sl.check)
}

// Send tracks the chunk as pending toward its destination and forwards
// it. Like the Sender it wraps, Send is called from commit context; the
// internal mutex additionally admits the timer and ack contexts.
//
//p2plint:hotpath -- wraps every chunk send when reliable delivery is on
func (s *ReliableSender) Send(from int, chunk transport.ScoreChunk) error {
	s.mu.Lock()
	sl := s.slot(from, int(chunk.DstGroup))
	now := s.clock.Now()
	if sl.brokenUntil > now {
		// Circuit open: the peer is presumed dead. Track the newest
		// chunk so state is current when the circuit closes, but keep
		// it off the wire until the cooldown passes.
		sl.chunk = chunk
		sl.round = chunk.Round
		sl.active = true
		sl.attempts = 0
		sl.timeout = s.cfg.Timeout
		s.stats.Suppressed++
		s.mu.Unlock()
		return nil
	}
	sl.brokenUntil = 0
	sl.chunk = chunk
	sl.round = chunk.Round
	sl.active = true
	sl.attempts = 0
	sl.timeout = s.cfg.Timeout
	s.deadline(sl, now, sl.timeout)
	s.arm(sl, now)
	s.mu.Unlock()
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.inner.Send(from, chunk)
}

// Flush forwards to the wrapped sender.
func (s *ReliableSender) Flush(from int) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.inner.Flush(from)
}

// expire is the timer callback: retransmit the pending chunk if its
// deadline truly passed, or trip the breaker once attempts run out.
func (s *ReliableSender) expire(sl *relSlot) {
	s.mu.Lock()
	sl.armed = false
	if !sl.active || sl.brokenUntil > 0 {
		s.mu.Unlock()
		return
	}
	now := s.clock.Now()
	if now < sl.nextAt {
		// A newer send pushed the deadline out while this timer was in
		// flight; sleep the remainder.
		s.arm(sl, now)
		s.mu.Unlock()
		return
	}
	sl.attempts++
	if sl.attempts > relMaxAttempts {
		// Dead-peer circuit breaker: stop burning the network on a peer
		// that has stopped acking. The first send after the cooldown
		// probes it again; any ack closes the circuit immediately.
		sl.brokenUntil = now + relCooldown*s.cfg.Timeout
		sl.active = false
		s.stats.BreakerTrips++
		s.mu.Unlock()
		return
	}
	s.stats.Retries++
	sl.timeout = min(sl.timeout*relBackoff, relMaxTimeout*s.cfg.Timeout)
	s.deadline(sl, now, sl.timeout)
	s.arm(sl, now)
	from, chunk, attempt, obs := sl.from, sl.chunk, sl.attempts, s.obs
	s.mu.Unlock()
	if obs != nil {
		obs.ChunkRetried(from, sl.dst, attempt)
	}
	// Retransmit outside the state lock (a blocked downstream must not
	// stall acks), serialized with commit-context sends by sendMu. A
	// failed retransmission is just another loss; the next expiry
	// retries again.
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if err := s.inner.Send(from, chunk); err != nil {
		return
	}
	_ = s.inner.Flush(from)
}

// Ack records a cumulative acknowledgement from destination dst
// covering from's chunks up to and including round. An ack also closes
// the destination's circuit: a peer that acks is alive. An ack naming
// a destination from has never sent to is ignored: on the live wire
// the group is outside input.
func (s *ReliableSender) Ack(from int, dst int32, round int64) {
	s.mu.Lock()
	if from >= len(s.slots) || dst < 0 || int(dst) >= len(s.slots[from]) {
		s.mu.Unlock()
		return
	}
	sl := s.slots[from][int(dst)]
	if sl == nil {
		s.mu.Unlock()
		return
	}
	sl.brokenUntil = 0
	if !sl.active || sl.round > round {
		s.mu.Unlock()
		return // nothing pending, or the pending chunk is newer
	}
	sl.active = false
	sl.attempts = 0
	s.stats.Acks++
	obs := s.obs
	s.mu.Unlock()
	if obs != nil {
		obs.AckReceived(from, int(dst), round)
	}
}

// Forget discards all of from's pending chunks and timers — the sender
// crashed, and its post-restart state (checkpointed pending chunks
// included) re-enters through Send.
func (s *ReliableSender) Forget(from int) {
	s.mu.Lock()
	if from < len(s.slots) {
		for _, sl := range s.slots[from] {
			if sl != nil {
				sl.active = false
				sl.attempts = 0
				sl.brokenUntil = 0
			}
		}
	}
	s.mu.Unlock()
}

// ClearBreaker closes every sender's circuit toward destination group
// dst — a supervisor calls it right after restarting the peer, so
// traffic resumes immediately instead of waiting out the cooldown. A
// chunk that was suppressed while the circuit was open is re-armed for
// immediate retransmission.
func (s *ReliableSender) ClearBreaker(dst int) {
	s.mu.Lock()
	now := s.clock.Now()
	for _, row := range s.slots {
		if dst >= len(row) || row[dst] == nil {
			continue
		}
		sl := row[dst]
		if sl.brokenUntil == 0 {
			continue
		}
		sl.brokenUntil = 0
		if sl.active {
			sl.timeout = s.cfg.Timeout
			sl.nextAt = now
			s.arm(sl, now)
		}
	}
	s.mu.Unlock()
}

// Broken reports whether any sender's circuit to destination group dst
// is currently open — the reliable layer's "this peer stopped acking"
// signal, which supervisors combine with connection-level liveness.
func (s *ReliableSender) Broken(dst int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	for _, row := range s.slots {
		if dst < len(row) && row[dst] != nil && row[dst].brokenUntil > now {
			return true
		}
	}
	return false
}

// PendingChunks appends from's unacknowledged chunks to dst in
// ascending destination order — the deterministic "pending outbox" a
// checkpoint captures. It implements PendingSource.
func (s *ReliableSender) PendingChunks(from int, dst []transport.ScoreChunk) []transport.ScoreChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < len(s.slots) {
		for _, sl := range s.slots[from] {
			if sl != nil && sl.active {
				dst = append(dst, sl.chunk)
			}
		}
	}
	return dst
}

// Stats returns the layer's counters; a nil layer (reliability off)
// counts nothing.
func (s *ReliableSender) Stats() ReliableStats {
	if s == nil {
		return ReliableStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
