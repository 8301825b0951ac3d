package simnet

import (
	"testing"

	"p2prank/internal/xrand"
)

// BenchmarkSchedule measures the raw scheduler on its heap path, the
// one timers and plain events take: one pop + one push per iteration
// against a steady 4096-event pending set at random times — and the
// alloc gate's proof that steady-state scheduling recycles every event
// struct. In-order deliveries take the lane instead
// (BenchmarkDeliverFixedLatency).
func BenchmarkSchedule(b *testing.B) {
	var q eventQueue
	rng := xrand.New(1)
	const pending = 4096
	var seq uint64
	for i := 0; i < pending; i++ {
		seq++
		q.heap.push(&event{at: rng.Float64() * 2, seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		seq++
		e.at, e.seq = e.at+rng.Float64()*2, seq
		q.heap.push(e)
	}
}

// BenchmarkDeliverFixedLatency measures the delivery path end to end —
// Network.Send, batch pooling, the queue's in-order lane, deliverBatch —
// with 1024 ping chains bouncing one message each between their own two
// nodes at fixed latency, so every delivery is one event and the lane
// holds the whole pending set. Steady state allocates nothing.
func BenchmarkDeliverFixedLatency(b *testing.B) {
	s := New(1)
	n, err := NewNetwork(s, NetConfig{MinLatency: 0.1, MaxLatency: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	const chains = 1024
	payload := &struct{}{}
	bounce := func(m Message) { n.Send(m.To, m.From, m.Payload, 64) }
	for i := 0; i < chains; i++ {
		a, c := n.AddNode(bounce), n.AddNode(bounce)
		s.At(float64(i)/chains*0.1, func() { n.Send(a, c, payload, 64) })
	}
	s.Run(4 * chains) // start every chain and fill the pools
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(uint64(b.N))
}

// benchEntity is a self-rescheduling simulation entity: a Timer-driven
// loop like a ranker's wait chain, with its commit closure built once so
// steady-state iterations allocate nothing.
type benchEntity struct {
	tm     *Timer
	rng    *xrand.Rand
	commit func()
}

func (e *benchEntity) step() func() { return e.commit }

// BenchmarkEventLoop measures the full dispatch path — the event heap,
// two-phase batching, timer re-arm — with 1024 entities rescheduling
// themselves at random intervals, the shape of a ranker population
// between message bursts.
func BenchmarkEventLoop(b *testing.B) {
	s := New(1)
	const entities = 1024
	for i := 0; i < entities; i++ {
		e := &benchEntity{rng: s.Rand().Fork()}
		e.commit = func() { e.tm.Schedule(e.rng.Float64() * 2) }
		e.tm = s.NewComputeTimer(e.step)
		e.tm.Schedule(e.rng.Float64() * 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(uint64(b.N))
}
