package simnet

import (
	"testing"

	"p2prank/internal/xrand"
)

// refQueue is the pre-calendar-queue scheduler — one global binary heap —
// kept as the reference implementation. The (at, seq) pair is a strict
// total order, so the calendar queue must pop in exactly this order no
// matter how its window, width, or bucket count evolve.
type refQueue struct{ h eventHeap }

func (r *refQueue) push(e *event) { r.h.push(e) }
func (r *refQueue) pop() *event {
	if len(r.h) == 0 {
		return nil
	}
	return r.h.pop()
}

// TestCalendarMatchesHeapOrder drives the calendar queue and the old
// global heap through the same seeded random workload — time ties,
// far-future overflow events, interleaved pushes and pops that force
// migrate, grow-rebuild, and shrink-rebuild — and requires identical pop
// order throughout.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	rng := xrand.New(7)
	var cq calendarQueue
	var ref refQueue
	var seq uint64
	now, lastAt := 0.0, 0.0
	mk := func(at float64) (*event, *event) {
		seq++
		return &event{at: at, seq: seq}, &event{at: at, seq: seq}
	}
	push := func(at float64) {
		if at < now {
			at = now // the Simulator forbids scheduling in the past
		}
		a, b := mk(at)
		cq.push(a)
		ref.push(b)
		lastAt = at
	}
	popBoth := func() bool {
		a, b := cq.pop(), ref.pop()
		if (a == nil) != (b == nil) {
			t.Fatalf("queue emptiness diverged: calendar=%v heap=%v", a, b)
		}
		if a == nil {
			return false
		}
		if a.at != b.at || a.seq != b.seq {
			t.Fatalf("pop diverged: calendar (at=%v seq=%d) vs heap (at=%v seq=%d)",
				a.at, a.seq, b.at, b.seq)
		}
		if a.at < now {
			t.Fatalf("time went backwards: %v after %v", a.at, now)
		}
		now = a.at
		return true
	}

	for round := 0; round < 200; round++ {
		// A burst of pushes: mostly near-future, some exact ties with the
		// previous event, some far-future (overflow), occasionally enough
		// volume to trigger a grow-rebuild.
		burst := 1 + rng.Intn(200)
		if round%17 == 0 {
			burst += 8000 // outgrow 4×wheelMinBuckets: grow path
		}
		for i := 0; i < burst; i++ {
			switch rng.Intn(10) {
			case 0:
				push(lastAt) // exact tie: seq must break it
			case 1:
				push(now + 1e4 + rng.Float64()*1e4) // beyond the window
			default:
				push(now + rng.Float64()*2)
			}
		}
		// Drain a random fraction; draining far enough forces migrate
		// (wheel empty, overflow populated) and shrink-rebuild.
		drain := rng.Intn(cq.n + 1)
		for i := 0; i < drain; i++ {
			if !popBoth() {
				break
			}
		}
		if cq.n != len(ref.h) {
			t.Fatalf("pending count diverged: calendar=%d heap=%d", cq.n, len(ref.h))
		}
	}
	for popBoth() {
	}
	if cq.n != 0 {
		t.Fatalf("calendar queue reports %d pending after drain", cq.n)
	}
}

// TestCalendarWindowEdge pins the migrate clamp: an overflow event whose
// time lands exactly on (or rounds to) the re-anchored window's edge must
// come back into the wheel, not loop in overflow forever.
func TestCalendarWindowEdge(t *testing.T) {
	var cq calendarQueue
	var seq uint64
	push := func(at float64) {
		seq++
		cq.push(&event{at: at, seq: seq})
	}
	// Anchor at 0, then events spread so far that after draining the
	// wheel, migrate re-anchors with the remaining events straddling the
	// new window edge.
	push(0)
	for i := 0; i < 100; i++ {
		push(1e6 + float64(i)*1e-9) // tight cluster far beyond the window
	}
	var prev float64 = -1
	for i := 0; i < 101; i++ {
		e := cq.pop()
		if e == nil {
			t.Fatalf("queue drained after %d pops, want 101", i)
		}
		if e.at < prev {
			t.Fatalf("pop %d went backwards: %v after %v", i, e.at, prev)
		}
		prev = e.at
	}
	if cq.pop() != nil {
		t.Fatal("queue not empty after draining all events")
	}
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
