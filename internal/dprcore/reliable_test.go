package dprcore

import (
	"testing"

	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
)

// nullSender discards everything — the zero-allocation baseline.
type nullSender struct{}

func (nullSender) Send(from int, c transport.ScoreChunk) error { return nil }
func (nullSender) Flush(from int) error                        { return nil }

// countObs records the reliability hooks it saw.
type countObs struct {
	telemetry.Noop
	retried, acked, recovered int
}

func (o *countObs) ChunkRetried(ranker, dst, attempt int) { o.retried++ }
func (o *countObs) AckReceived(ranker, dst int, r int64)  { o.acked++ }
func (o *countObs) Recovered(ranker int, r int64)         { o.recovered++ }

func TestReliableConfigValidate(t *testing.T) {
	if (ReliableConfig{Timeout: -1}).Validate() == nil {
		t.Error("negative timeout accepted")
	}
	if err := (ReliableConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if (ReliableConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(ReliableConfig{Timeout: 1}).Enabled() {
		t.Error("timeout config reports disabled")
	}
}

func TestNewReliableSenderValidation(t *testing.T) {
	if _, err := NewReliableSender(nil, &fakeClock{}, constRNG{}, ReliableConfig{Timeout: 1}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewReliableSender(nullSender{}, nil, constRNG{}, ReliableConfig{Timeout: 1}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewReliableSender(nullSender{}, &fakeClock{}, nil, ReliableConfig{Timeout: 1}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewReliableSender(nullSender{}, &fakeClock{}, constRNG{}, ReliableConfig{}); err == nil {
		t.Error("disabled config accepted")
	}
}

// relFixture builds a reliable sender over a recordSender on a
// hand-cranked clock, drawing zero jitter so deadlines are exact.
func relFixture(t *testing.T, cfg ReliableConfig) (*ReliableSender, *recordSender, *fakeClock) {
	t.Helper()
	inner := &recordSender{}
	clk := &fakeClock{}
	rel, err := NewReliableSender(inner, clk, constRNG{f: 0, e: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rel, inner, clk
}

func TestReliableSenderRetriesWithBackoffUntilAck(t *testing.T) {
	rel, inner, clk := relFixture(t, ReliableConfig{Timeout: 10})
	obs := &countObs{}
	rel.Observe(obs)
	if err := rel.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 1 {
		t.Fatalf("got %d sends, want the original", len(inner.sends))
	}
	clk.advance(9.9)
	if len(inner.sends) != 1 {
		t.Fatal("retried before the timeout")
	}
	clk.advance(10) // first retry at 10
	if len(inner.sends) != 2 {
		t.Fatalf("got %d sends, want retry at t=10", len(inner.sends))
	}
	clk.advance(29.9) // next deadline is 10 + 20 (backed off)
	if len(inner.sends) != 2 {
		t.Fatal("retried before the backed-off timeout")
	}
	clk.advance(30)
	if len(inner.sends) != 3 {
		t.Fatalf("got %d sends, want retry at t=30", len(inner.sends))
	}
	rel.Ack(0, 1, 1)
	clk.advance(1000)
	if len(inner.sends) != 3 {
		t.Fatalf("got %d sends, retried after the ack", len(inner.sends))
	}
	st := rel.Stats()
	if st.Retries != 2 || st.Acks != 1 {
		t.Fatalf("stats = %+v, want 2 retries and 1 ack", st)
	}
	if obs.retried != 2 || obs.acked != 1 {
		t.Fatalf("observer saw %d retries, %d acks, want 2 and 1", obs.retried, obs.acked)
	}
}

// An ack naming a group the sender never sent to is ignored: live, the
// group comes off the wire, where 2³¹ decodes as math.MinInt32.
func TestReliableAckIgnoresForeignGroups(t *testing.T) {
	for name, dst := range map[string]int32{"negative": -1 << 31, "minus one": -1, "huge": 1 << 30} {
		rel, inner, clk := relFixture(t, ReliableConfig{Timeout: 10})
		if err := rel.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
			t.Fatal(err)
		}
		rel.Ack(0, dst, 5)
		clk.advance(10)
		if st := rel.Stats(); st.Acks != 0 || len(inner.sends) != 2 {
			t.Errorf("%s: stats %+v after %d sends, want no ack and one retry", name, st, len(inner.sends))
		}
	}
}

func TestReliableNewerSendSupersedesPending(t *testing.T) {
	rel, inner, clk := relFixture(t, ReliableConfig{Timeout: 10})
	if err := rel.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := rel.Send(0, chunk(0, 1, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	rel.Ack(0, 1, 1) // stale ack: the pending chunk is round 2
	clk.advance(50)
	last := inner.sends[len(inner.sends)-1]
	if last.Round != 2 {
		t.Fatalf("retransmitted round %d, want the superseding round 2", last.Round)
	}
	rel.Ack(0, 1, 2)
	n := len(inner.sends)
	clk.advance(1000)
	if len(inner.sends) != n {
		t.Fatal("retried after the cumulative ack")
	}
}

// relExpiries are the expiry times of a chunk sent at 0 with Timeout 1
// and zero jitter that nothing acks: six retransmissions, the timeout
// doubling from 1 up to its cap of 16, then the expiry that finds the
// attempts exhausted and trips the breaker.
var relExpiries = []float64{1, 3, 7, 15, 31, 47, 63}

// crank advances clk through relExpiries shifted by t0, one deadline at
// a time, so each expiry re-arms from its own deadline.
func crank(clk *fakeClock, t0 float64) {
	for _, at := range relExpiries {
		clk.advance(t0 + at)
	}
}

func TestReliableBreakerTripsSuppressesAndRecovers(t *testing.T) {
	rel, inner, clk := relFixture(t, ReliableConfig{Timeout: 1})
	if err := rel.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	for i, at := range relExpiries[:6] {
		clk.advance(at - 0.01)
		if st := rel.Stats(); st.Retries != int64(i) {
			t.Fatalf("t=%v: %d retries, want %d before the deadline at %v", clk.now, st.Retries, i, at)
		}
		clk.advance(at)
		if st := rel.Stats(); st.Retries != int64(i+1) || st.BreakerTrips != 0 {
			t.Fatalf("t=%v: stats %+v, want retry %d and no trip", at, st, i+1)
		}
	}
	clk.advance(62.99)
	if rel.Broken(1) {
		t.Fatal("breaker tripped before the seventh expiry")
	}
	clk.advance(63) // attempts exhausted: the breaker trips
	st := rel.Stats()
	if st.BreakerTrips != 1 || st.Retries != 6 {
		t.Fatalf("stats = %+v, want 1 trip after 6 retries", st)
	}
	if !rel.Broken(1) {
		t.Fatal("Broken(1) = false with the circuit open")
	}
	n := len(inner.sends)
	if err := rel.Send(0, chunk(0, 1, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != n {
		t.Fatal("send reached the wire with the circuit open")
	}
	if rel.Stats().Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", rel.Stats().Suppressed)
	}
	// The cooldown is ten timeouts: the circuit stays open until 73.
	clk.advance(72.99)
	if !rel.Broken(1) {
		t.Fatal("circuit closed before the cooldown passed")
	}
	// Clearing the breaker (the supervisor restarted the peer) re-arms
	// the suppressed chunk for immediate retransmission.
	rel.ClearBreaker(1)
	if rel.Broken(1) {
		t.Fatal("Broken(1) = true after ClearBreaker")
	}
	clk.advance(clk.now)
	if len(inner.sends) != n+1 || inner.sends[len(inner.sends)-1].Round != 2 {
		t.Fatalf("suppressed chunk not retransmitted after ClearBreaker (%d sends)", len(inner.sends))
	}
	rel.Ack(0, 1, 2)
	if rel.Broken(1) {
		t.Fatal("ack left the circuit open")
	}
}

func TestReliableForgetDropsPending(t *testing.T) {
	rel, inner, clk := relFixture(t, ReliableConfig{Timeout: 10})
	if err := rel.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	rel.Forget(0)
	n := len(inner.sends)
	clk.advance(1000)
	if len(inner.sends) != n {
		t.Fatal("forgotten chunk was retransmitted")
	}
	if got := rel.PendingChunks(0, nil); len(got) != 0 {
		t.Fatalf("PendingChunks = %v after Forget, want none", got)
	}
}

func TestReliablePendingChunksAscending(t *testing.T) {
	rel, _, _ := relFixture(t, ReliableConfig{Timeout: 10})
	if err := rel.Send(0, chunk(0, 3, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := rel.Send(0, chunk(0, 1, 1, 2.0)); err != nil {
		t.Fatal(err)
	}
	got := rel.PendingChunks(0, nil)
	if len(got) != 2 || got[0].DstGroup != 1 || got[1].DstGroup != 3 {
		t.Fatalf("PendingChunks = %v, want dst 1 then dst 3", got)
	}
	rel.Ack(0, 1, 1)
	if got := rel.PendingChunks(0, nil); len(got) != 1 || got[0].DstGroup != 3 {
		t.Fatalf("PendingChunks = %v after ack, want only dst 3", got)
	}
}

// TestReliableSenderZeroAllocs pins the zero-fault hot path: once a
// slot and its timer exist, a send/ack round trip allocates nothing.
func TestReliableSenderZeroAllocs(t *testing.T) {
	clk := &fakeClock{}
	rel, err := NewReliableSender(nullSender{}, clk, constRNG{f: 0.5}, ReliableConfig{Timeout: 10})
	if err != nil {
		t.Fatal(err)
	}
	c := chunk(0, 1, 0, 0.5)
	round := int64(0)
	round++
	c.Round = round
	if err := rel.Send(0, c); err != nil { // prewarm: slot + timer
		t.Fatal(err)
	}
	rel.Ack(0, 1, round)
	avg := testing.AllocsPerRun(1000, func() {
		round++
		c.Round = round
		if err := rel.Send(0, c); err != nil {
			t.Fatal(err)
		}
		rel.Ack(0, 1, round)
	})
	if avg != 0 {
		t.Fatalf("send/ack path allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkReliableSend measures the zero-fault send/ack round trip —
// the overhead the reliable layer adds when nothing goes wrong.
func BenchmarkReliableSend(b *testing.B) {
	clk := &fakeClock{}
	rel, err := NewReliableSender(nullSender{}, clk, constRNG{f: 0.5}, ReliableConfig{Timeout: 10})
	if err != nil {
		b.Fatal(err)
	}
	c := chunk(0, 1, 0, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Round = int64(i + 1)
		if err := rel.Send(0, c); err != nil {
			b.Fatal(err)
		}
		rel.Ack(0, 1, c.Round)
	}
}

// TestReliableBreakerPartitionOpenProbeCloseAcrossHeal walks the
// breaker's full state machine against the partition fault rather than
// a silent null sender: the reliable layer sits above a FaultSender
// whose partition blackholes the cut, so every state transition is
// driven by the same injected fault the degraded-serving stack models.
//
//	open:      blackholed chunk exhausts its six retries, circuit trips
//	half-open: first send after the cooldown probes the peer; mid-partition
//	           the probe is blackholed too and the circuit re-trips
//	closed:    post-heal the probe lands, the ack closes the circuit
func TestReliableBreakerPartitionOpenProbeCloseAcrossHeal(t *testing.T) {
	fcfg := FaultConfig{PartitionFrac: 0.4, PartitionFrom: 0, PartitionTo: 160, Seed: 7}
	mi, ma := latticePair(t, fcfg)
	inner := &recordSender{}
	clk := &fakeClock{}
	faults, err := NewFaultSender(inner, clk, constRNG{}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewReliableSender(faults, clk, constRNG{f: 0, e: 1}, ReliableConfig{Timeout: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Open: the chunk and all six retries cross the cut and vanish.
	if err := rel.Send(ma, chunk(int32(ma), int32(mi), 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	crank(clk, 0) // attempts exhausted at the seventh expiry, t=63
	if st := rel.Stats(); st.BreakerTrips != 1 || st.Retries != 6 {
		t.Fatalf("stats %+v, want 1 trip after 6 retries", st)
	}
	if !rel.Broken(mi) {
		t.Fatal("Broken(minority) = false with the partition swallowing every attempt")
	}
	if len(inner.sends) != 0 {
		t.Fatalf("%d chunks crossed an active partition", len(inner.sends))
	}

	// Still open: the next round's send is suppressed, not retried.
	if err := rel.Send(ma, chunk(int32(ma), int32(mi), 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if st := rel.Stats(); st.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", st.Suppressed)
	}

	// Half-open mid-partition: the cooldown (ends t=73) expires while
	// the cut is still up, so the probe is blackholed and the circuit
	// trips again at 80+63.
	clk.advance(80)
	if rel.Broken(mi) {
		t.Fatal("circuit still reported open after the cooldown elapsed")
	}
	if err := rel.Send(ma, chunk(int32(ma), int32(mi), 3, 3.0)); err != nil {
		t.Fatal(err)
	}
	crank(clk, 80)
	if st := rel.Stats(); st.BreakerTrips != 2 {
		t.Fatalf("stats %+v, want the mid-partition probe to re-trip", st)
	}
	if !rel.Broken(mi) || len(inner.sends) != 0 {
		t.Fatalf("mid-partition probe escaped: broken=%v sends=%d", rel.Broken(mi), len(inner.sends))
	}

	// Closed: past the heal (t=160) and the second cooldown (t=153),
	// the probe lands on the wire and the ack closes the circuit.
	clk.advance(170)
	if err := rel.Send(ma, chunk(int32(ma), int32(mi), 4, 4.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 1 || inner.sends[0].Round != 4 {
		t.Fatalf("post-heal probe did not reach the wire: %d sends", len(inner.sends))
	}
	rel.Ack(ma, int32(mi), 4)
	if rel.Broken(mi) {
		t.Fatal("ack left the circuit open")
	}
	clk.advance(2000)
	if len(inner.sends) != 1 {
		t.Fatalf("retransmitted after the closing ack (%d sends)", len(inner.sends))
	}
	if st := rel.Stats(); st.Acks != 1 {
		t.Fatalf("stats %+v, want the closing ack counted", st)
	}
	if got := faults.Stats().Partitioned; got != 14 {
		t.Fatalf("Stats().Partitioned = %d, want all 14 pre-heal attempts blackholed", got)
	}
}
