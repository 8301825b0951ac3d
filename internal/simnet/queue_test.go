package simnet

import (
	"sort"
	"testing"

	"p2prank/internal/xrand"
)

// stamp is one scheduled event's place in the (at, seq) total order.
type stamp struct {
	at  float64
	seq uint64
}

func stampLess(a, b stamp) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The order harness draws delays from two short tables, so instants
// tie often. Deliveries mostly take one fixed latency, the lane's case;
// the shorter ones land before the lane's tail (the heap path). Waits
// span ties at now, ties with the deliveries' instants (where a timer
// batch must stop at a lane event between two timers), and the far
// future.
var (
	deliveryDelays = [...]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0}
	waitDelays     = [...]float64{0, 0, 0.1, 0.1, 0.25, 1, 3, 1e3}
)

const orderTimers = 32

// orderTimer is one of the harness's two-phase entities. Its compute
// half copies the arm it fires for into fired (state private to this
// timer); the commit half records it and schedules more.
type orderTimer struct {
	tm     *Timer
	armed  stamp
	fired  stamp
	commit func()
}

// orderHarness drives a Simulator from a byte source: every firing
// event reads a few bytes and schedules At, AtArg (in order and out of
// order) and Timer re-arms from inside the simulation, recording every
// scheduled and every executed (at, seq). The simulator must execute
// exactly the sorted list of everything scheduled.
type orderHarness struct {
	t         testing.TB
	s         *Simulator
	next      func() byte
	left      int // schedules still allowed
	timers    [orderTimers]*orderTimer
	argFn     func(any)
	scheduled []stamp
	fired     []stamp
	// laneArgs and heapArgs count AtArg events by the structure they
	// entered, so a test can see both paths were taken.
	laneArgs, heapArgs int
}

func newOrderHarness(t testing.TB, next func() byte, limit int) *orderHarness {
	h := &orderHarness{t: t, s: New(1), next: next, left: limit}
	h.argFn = func(a any) { h.fire(*a.(*stamp)) }
	for i := range h.timers {
		ot := &orderTimer{}
		ot.commit = func() { h.fire(ot.fired) }
		ot.tm = h.s.NewComputeTimer(func() func() {
			ot.fired = ot.armed
			return ot.commit
		})
		h.timers[i] = ot
	}
	return h
}

// schedule reads one op and schedules it.
func (h *orderHarness) schedule() {
	if h.left <= 0 {
		return
	}
	h.left--
	op, pick := h.next(), h.next()%8
	d := waitDelays[pick]
	if op%4 == 1 || op%4 == 2 {
		d = deliveryDelays[pick]
	}
	at := h.s.Now() + d
	switch op % 4 {
	case 0:
		var st stamp
		h.s.At(at, func() { h.fire(st) })
		st = stamp{at, h.s.seq}
		h.scheduled = append(h.scheduled, st)
	case 1, 2:
		st := &stamp{}
		h.s.AtArg(at, h.argFn, st)
		*st = stamp{at, h.s.seq}
		h.scheduled = append(h.scheduled, *st)
		if q := &h.s.events.lane; q.n > 0 && q.tail().seq == h.s.seq {
			h.laneArgs++
		} else {
			h.heapArgs++
		}
	case 3:
		ot := h.timers[int(op/4)%orderTimers]
		if ot.tm.armed {
			return
		}
		ot.tm.Schedule(d)
		ot.armed = stamp{at, h.s.seq}
		h.scheduled = append(h.scheduled, ot.armed)
	}
}

// fire records an executed event and schedules up to three more.
func (h *orderHarness) fire(st stamp) {
	if st.at != h.s.Now() {
		h.t.Fatalf("event (at=%v seq=%d) ran at now=%v", st.at, st.seq, h.s.Now())
	}
	h.fired = append(h.fired, st)
	for k := h.next() % 4; k > 0; k-- {
		h.schedule()
	}
}

// run seeds the simulation with a few schedules from outside, runs it
// to empty in byte-chosen Run budgets (so two-phase batches get cut),
// and checks the executed order against a sort of everything scheduled.
func (h *orderHarness) run() {
	for i := 0; i < 6; i++ {
		h.schedule()
	}
	for h.s.Pending() > 0 {
		h.s.Run(uint64(1 + h.next()%16))
	}
	want := append([]stamp(nil), h.scheduled...)
	sort.Slice(want, func(i, j int) bool { return stampLess(want[i], want[j]) })
	if len(h.fired) != len(want) {
		h.t.Fatalf("executed %d events, scheduled %d", len(h.fired), len(want))
	}
	for i := range want {
		if h.fired[i] != want[i] {
			h.t.Fatalf("event %d executed (at=%v seq=%d), sorted order has (at=%v seq=%d)",
				i, h.fired[i].at, h.fired[i].seq, want[i].at, want[i].seq)
		}
	}
}

// TestSchedulerOrderMatchesSort runs seeded random schedules — plain
// events, in-order and out-of-order AtArg deliveries, Timer re-arms,
// same-instant ties, and two-phase batches cut by Run budgets and by
// lane events at their instant — and requires the executed order to be
// the (at, seq) sort of everything scheduled.
func TestSchedulerOrderMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		h := newOrderHarness(t, func() byte { return byte(rng.Uint64()) }, 20000)
		h.run()
		if h.laneArgs == 0 || h.heapArgs == 0 {
			t.Fatalf("seed %d: %d AtArg events took the lane and %d the heap; want both paths",
				seed, h.laneArgs, h.heapArgs)
		}
	}
}

// FuzzSchedulerOrder is TestSchedulerOrderMatchesSort over arbitrary
// bytes: each byte steers what a firing event schedules, and the bytes
// running out ends the schedule.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 1, 3, 3, 3, 2, 7, 1, 0, 3, 9, 1, 0})
	f.Add([]byte("\x03\x01\x06\x02\x03\x01\x03\x07\x02\x00\x02\x03\x05\x03\x03\x0b\x00"))
	f.Add([]byte("timers and deliveries at one instant"))
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		newOrderHarness(t, next, len(data)).run()
	})
}

// TestComputeTimer exercises the recurring-timer path: one pinned event
// re-armed across iterations, never entering the freelist, each arm
// drawing a fresh (at, seq) position like any scheduled event.
func TestComputeTimer(t *testing.T) {
	s := New(1)
	var fired []float64
	var tm *Timer
	n := 0
	tm = s.NewComputeTimer(func() func() {
		return func() {
			fired = append(fired, s.Now())
			if n++; n < 3 {
				tm.Schedule(2)
			}
		}
	})
	tm.Schedule(1)
	s.Run(0)
	want := []float64{1, 3, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if len(s.free) != 0 {
		t.Fatalf("pinned timer event leaked into the freelist (len %d)", len(s.free))
	}
}

// TestTimerInterleavesWithEvents checks a timer obeys the global (at,
// seq) order against ordinary events at the same instant.
func TestTimerInterleavesWithEvents(t *testing.T) {
	s := New(1)
	var order []string
	s.At(5, func() { order = append(order, "a") })
	tm := s.NewComputeTimer(func() func() {
		return func() { order = append(order, "timer") }
	})
	tm.Schedule(5) // armed after "a" was scheduled: fires second
	s.At(5, func() { order = append(order, "b") })
	s.Run(0)
	if len(order) != 3 || order[0] != "a" || order[1] != "timer" || order[2] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestTimerReArmWhilePendingPanics(t *testing.T) {
	s := New(1)
	tm := s.NewComputeTimer(func() func() { return nil })
	tm.Schedule(1)
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a pending timer did not panic")
		}
	}()
	tm.Schedule(2)
}

func TestTimerNegativeDelayPanics(t *testing.T) {
	s := New(1)
	tm := s.NewComputeTimer(func() func() { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("negative timer delay did not panic")
		}
	}()
	tm.Schedule(-1)
}

// TestFreeListCapped verifies a scheduling spike does not pin its
// high-water mark of event structs: the freelist stops growing at
// eventFreeListCap and later frees fall through to the collector.
func TestFreeListCapped(t *testing.T) {
	s := New(1)
	n := eventFreeListCap + 500
	for i := 0; i < n; i++ {
		s.At(1, func() {})
	}
	s.Run(0)
	if len(s.free) > eventFreeListCap {
		t.Fatalf("freelist grew to %d, cap is %d", len(s.free), eventFreeListCap)
	}
}
