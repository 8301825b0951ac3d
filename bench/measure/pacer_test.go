package measure

import "testing"

// fakeClock advances a fixed step every time it is read, so a
// spin-wait terminates and every reading is predictable.
type fakeClock struct{ t, step int64 }

func (c *fakeClock) now() int64 {
	c.t += c.step
	return c.t
}

func TestPacerKeepsScheduleAndChargesStallsToTheGenerator(t *testing.T) {
	clk := &fakeClock{step: 10}
	p := NewPacer(clk.now, 1000)
	start := clk.t // NewPacer read the clock once

	// On schedule: each operation is due one interval after the last,
	// and the pacer returns only once the clock has reached it.
	for i := int64(1); i <= 3; i++ {
		due := p.Next()
		if due != start+i*1000 {
			t.Fatalf("operation %d due at %d, want %d", i, due, start+i*1000)
		}
		if clk.t < due {
			t.Fatalf("operation %d issued at %d, before it was due at %d", i, clk.t, due)
		}
	}
	if p.LateMax != 0 {
		t.Fatalf("on-schedule operations counted late by %d", p.LateMax)
	}

	// The third operation stalls for 3.5 intervals. The schedule does
	// not move: operations 4–6 are due at their original times, are
	// issued at once, and their lateness is recorded — a latency taken
	// from the due time therefore includes the stall.
	clk.t += 3500
	stalledAt := clk.t
	var lates []int64
	for i := int64(4); i <= 6; i++ {
		due := p.Next()
		if due != start+i*1000 {
			t.Fatalf("operation %d due at %d after a stall, want %d", i, due, start+i*1000)
		}
		lates = append(lates, clk.t-due)
	}
	if clk.t > stalledAt+3*clk.step {
		t.Fatalf("the pacer waited while behind schedule: clock at %d", clk.t)
	}
	if p.LateMax != lates[0] {
		t.Fatalf("LateMax = %d, want the first late operation's %d", p.LateMax, lates[0])
	}
	// Caught up: operation 7 is in the future again and is waited for.
	due := p.Next()
	if clk.t < due {
		t.Fatalf("after catching up: issued at %d, before it was due at %d", clk.t, due)
	}
}
