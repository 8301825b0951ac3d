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

// relExpiries are the retransmission times of a chunk sent at 0 with
// Timeout 1 and zero jitter that nothing acks: the timeout doubles from
// 1 up to its cap of 16, and after the sixth retransmission the next
// expiry, at 63, finds the attempts exhausted.
var relExpiries = []float64{1, 3, 7, 15, 31, 47}

// TestReliableRetriesBoundedThenAbandoned pins the retry schedule and
// its bound. The sender sits above a FaultSender whose partition
// blackholes the cut until 63, so every attempt is swallowed by the
// same fault the degraded-serving stack models: six retransmissions on
// the backed-off schedule, then the chunk is abandoned — no seventh
// retransmission, nothing pending — and the next round's send, just
// past the heal, reaches the wire at once.
func TestReliableRetriesBoundedThenAbandoned(t *testing.T) {
	fcfg := FaultConfig{PartitionFrac: 0.4, PartitionFrom: 0, PartitionTo: 63, Seed: 7}
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
	if err := rel.Send(ma, chunk(int32(ma), int32(mi), 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	for i, at := range relExpiries {
		clk.advance(at - 0.01)
		if st := rel.Stats(); st.Retries != int64(i) {
			t.Fatalf("t=%v: %d retries, want %d before the deadline at %v", clk.now, st.Retries, i, at)
		}
		clk.advance(at)
		if st := rel.Stats(); st.Retries != int64(i+1) {
			t.Fatalf("t=%v: %d retries, want %d", at, st.Retries, i+1)
		}
	}
	clk.advance(63) // the seventh expiry: attempts exhausted
	if got := faults.Stats().Partitioned; got != 7 || len(inner.sends) != 0 {
		t.Fatalf("%d blackholed, %d crossed the cut; want the send and its 6 retries blackholed", got, len(inner.sends))
	}
	if got := rel.PendingChunks(ma, nil); len(got) != 0 {
		t.Fatalf("PendingChunks = %v after the retries ran out, want none", got)
	}
	if err := rel.Send(ma, chunk(int32(ma), int32(mi), 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 1 || inner.sends[0].Round != 2 {
		t.Fatalf("next round's send did not reach the wire at once: %d sends", len(inner.sends))
	}
	rel.Ack(ma, int32(mi), 2)
	clk.advance(2000)
	st := rel.Stats()
	if st.Retries != 6 || st.Acks != 1 || faults.Stats().Partitioned != 7 || len(inner.sends) != 1 {
		t.Fatalf("stats %+v, %d blackholed, %d sends; want no seventh retransmission and the ack counted",
			st, faults.Stats().Partitioned, len(inner.sends))
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
