package simnet

import (
	"testing"
)

func batchedNet(t *testing.T, seed uint64, cfg NetConfig) (*Simulator, *Network) {
	t.Helper()
	s := New(seed)
	n, err := NewNetwork(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

// TestBatchDeliveryFIFO checks the batching contract's invariant:
// same-instant messages to one destination arrive in send order.
func TestBatchDeliveryFIFO(t *testing.T) {
	s, n := batchedNet(t, 1, NetConfig{MinLatency: 0.1, MaxLatency: 0.1})
	var got []int
	dst := n.AddNode(func(m Message) { got = append(got, m.Payload.(int)) })
	src := n.AddNode(func(Message) {})
	for i := 0; i < 50; i++ {
		n.Send(src, dst, i, 10)
	}
	s.Run(0)
	if len(got) != 50 {
		t.Fatalf("delivered %d messages, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("per-destination FIFO broken: got[%d] = %d", i, v)
		}
	}
}

// TestBatchDeliveryCoalescesEvents is the point of batching: B
// same-instant messages to one destination ride one event, so the
// simulator executes O(instants), not O(messages), delivery events.
func TestBatchDeliveryCoalescesEvents(t *testing.T) {
	s, n := batchedNet(t, 1, NetConfig{MinLatency: 0.1, MaxLatency: 0.1})
	dst := n.AddNode(func(Message) {})
	src := n.AddNode(func(Message) {})
	const B = 100
	for i := 0; i < B; i++ {
		n.Send(src, dst, i, 10)
	}
	if p := s.Pending(); p != 1 {
		t.Fatalf("%d same-instant sends scheduled %d events, want 1", B, p)
	}
	s.Run(0)
	if st := n.TotalStats(); st.MessagesDelivered != B {
		t.Fatalf("delivered %d, want %d", st.MessagesDelivered, B)
	}
}

// TestBatchDeliveryFieldIsInert runs the same fixed-latency workload
// with NetConfig.BatchDelivery set and unset: there is one delivery
// path, so delivery order, every counter and the event count agree.
func TestBatchDeliveryFieldIsInert(t *testing.T) {
	type outcome struct {
		got   []int
		stats Stats
		ran   uint64
	}
	run := func(batch bool) outcome {
		s, n := batchedNet(t, 9, NetConfig{MinLatency: 0.2, MaxLatency: 0.2, BatchDelivery: batch})
		var got []int
		var addrs []NodeAddr
		for i := 0; i < 4; i++ {
			addrs = append(addrs, n.AddNode(func(m Message) { got = append(got, m.Payload.(int)) }))
		}
		for round := 0; round < 5; round++ {
			round := round
			s.At(float64(round), func() {
				for i := 0; i < 4; i++ {
					for j := 0; j < 4; j++ {
						if i != j {
							n.Send(addrs[i], addrs[j], round*100+i*10+j, 25)
						}
					}
				}
			})
		}
		s.Run(0)
		return outcome{got, n.TotalStats(), s.Processed()}
	}
	a, b := run(false), run(true)
	if a.stats != b.stats || a.ran != b.ran {
		t.Fatalf("runs diverged:\nunset %+v, %d events\nset   %+v, %d events", a.stats, a.ran, b.stats, b.ran)
	}
	if len(a.got) != 60 || len(a.got) != len(b.got) {
		t.Fatalf("delivered %d and %d messages, want 60", len(a.got), len(b.got))
	}
	for i := range a.got {
		if a.got[i] != b.got[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, a.got[i], b.got[i])
		}
	}
}

// TestBatchDeliveryDownNodeDrops re-checks liveness at delivery time:
// a destination that fails while a batch is in flight drops the whole
// batch.
func TestBatchDeliveryDownNodeDrops(t *testing.T) {
	s, n := batchedNet(t, 1, NetConfig{MinLatency: 1, MaxLatency: 1})
	delivered := 0
	dst := n.AddNode(func(Message) { delivered++ })
	src := n.AddNode(func(Message) {})
	for i := 0; i < 10; i++ {
		n.Send(src, dst, i, 10)
	}
	s.At(0.5, func() { n.SetDown(dst, true) })
	s.Run(0)
	if delivered != 0 {
		t.Fatalf("delivered %d messages to a down node", delivered)
	}
	if st := n.TotalStats(); st.MessagesDropped != 10 {
		t.Fatalf("dropped = %d, want 10", st.MessagesDropped)
	}
}

// TestBatchDeliveryRecycles checks fired batches return to the pool and
// get reused — steady state allocates no batches.
func TestBatchDeliveryRecycles(t *testing.T) {
	s, n := batchedNet(t, 1, NetConfig{MinLatency: 0.1, MaxLatency: 0.1})
	dst := n.AddNode(func(Message) {})
	src := n.AddNode(func(Message) {})
	for round := 0; round < 20; round++ {
		round := round
		s.At(float64(round), func() { n.Send(src, dst, round, 10) })
	}
	s.Run(0)
	if len(n.batchFree) != 1 {
		t.Fatalf("batch pool holds %d batches after 20 sequential rounds, want 1 recycled",
			len(n.batchFree))
	}
}

// TestBatchDeliveryDeterminism: batched runs are still a pure function
// of the seed.
func TestBatchDeliveryDeterminism(t *testing.T) {
	run := func() []int {
		s, n := batchedNet(t, 77, NetConfig{MinLatency: 0.05, MaxLatency: 0.25})
		var got []int
		var addrs []NodeAddr
		for i := 0; i < 3; i++ {
			addrs = append(addrs, n.AddNode(func(m Message) { got = append(got, m.Payload.(int)) }))
		}
		for i := 0; i < 60; i++ {
			i := i
			s.At(float64(i%7)*0.3, func() { n.Send(addrs[i%3], addrs[(i+1)%3], i, 10) })
		}
		s.Run(0)
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// laneWorkload runs rankers-like traffic on a network: eight Timer
// entities that each send to three others every wait, handlers that
// relay every fourth message on, and plain At events between the
// timers. check runs after every event and delivery.
func laneWorkload(t *testing.T, cfg NetConfig, check func(*Simulator)) {
	t.Helper()
	s, n := batchedNet(t, 5, cfg)
	rng := s.Rand().Fork()
	const nodes = 8
	var addrs [nodes]NodeAddr
	for i := range addrs {
		i := i
		addrs[i] = n.AddNode(func(m Message) {
			check(s)
			if hop := m.Payload.(int); hop%4 != 0 && s.Now() < 20 {
				n.Send(addrs[i], addrs[(i+hop)%nodes], hop+1, 32)
			}
		})
	}
	for i := range addrs {
		i := i
		var tm *Timer
		commit := func() {
			check(s)
			for j := 1; j <= 3; j++ {
				n.Send(addrs[i], addrs[rng.Intn(nodes)], j, 64)
			}
			s.At(s.Now()+rng.Float64(), func() { check(s) })
			if s.Now() < 20 {
				tm.Schedule(0.5 + rng.Float64()*2)
			}
		}
		tm = s.NewComputeTimer(func() func() { return commit })
		tm.Schedule(rng.Float64())
	}
	s.Run(0)
}

// TestFixedLatencyDeliveriesUseLane pins where the scale path's
// deliveries go: under fixed latency every delivery is scheduled at
// now + latency, which never decreases, so each one must take the
// queue's in-order lane and the heap must hold only timers and plain
// events. Jittered latency is the control: there some deliveries land
// before the lane's tail and must go to the heap.
func TestFixedLatencyDeliveriesUseLane(t *testing.T) {
	heapDeliveries := func(s *Simulator) int {
		k := 0
		for _, e := range s.events.heap {
			if e.argFn != nil {
				k++
			}
		}
		return k
	}
	maxLane := 0
	laneWorkload(t, NetConfig{MinLatency: 0.1, MaxLatency: 0.1}, func(s *Simulator) {
		if k := heapDeliveries(s); k != 0 {
			t.Fatalf("at t=%v the heap holds %d delivery events under fixed latency", s.Now(), k)
		}
		maxLane = max(maxLane, s.events.lane.n)
	})
	if maxLane < 2 {
		t.Fatalf("the lane never held more than %d deliveries", maxLane)
	}

	jittered := 0
	laneWorkload(t, NetConfig{MinLatency: 0.05, MaxLatency: 0.15}, func(s *Simulator) {
		jittered = max(jittered, heapDeliveries(s))
	})
	if jittered == 0 {
		t.Fatal("no delivery ever reached the heap under jittered latency; the check above cannot fail")
	}
}
