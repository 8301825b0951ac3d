package dprcore

import (
	"fmt"
	"testing"
)

// fakeSet is a scriptable Supervised: per-ranker liveness flags and a
// per-ranker error the next Restart returns.
type fakeSet struct {
	alive    []bool
	fail     []error
	restarts []int
}

func (s *fakeSet) NumRankers() int  { return len(s.alive) }
func (s *fakeSet) Alive(i int) bool { return s.alive[i] }
func (s *fakeSet) Restart(i int) error {
	s.restarts[i]++
	if s.fail[i] != nil {
		return s.fail[i]
	}
	s.alive[i] = true
	return nil
}

func newFakeSet(n int) *fakeSet {
	return &fakeSet{alive: make([]bool, n), fail: make([]error, n), restarts: make([]int, n)}
}

func TestNewSupervisorValidation(t *testing.T) {
	set := newFakeSet(1)
	clk := &fakeClock{}
	if _, err := NewSupervisor(nil, clk, constRNG{}, SupervisorConfig{ProbeEvery: 1}); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := NewSupervisor(set, clk, constRNG{}, SupervisorConfig{}); err == nil {
		t.Error("zero ProbeEvery accepted")
	}
}

func TestSupervisorRestartsDeadRankers(t *testing.T) {
	set := newFakeSet(3)
	set.alive[0], set.alive[2] = true, true
	sup, err := NewSupervisor(set, &fakeClock{}, constRNG{f: 0.5}, SupervisorConfig{ProbeEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	sup.Probe()
	if set.restarts[0] != 0 || set.restarts[1] != 1 || set.restarts[2] != 0 {
		t.Fatalf("restarts = %v, want only ranker 1 restarted", set.restarts)
	}
	if !set.alive[1] || sup.Restarts() != 1 {
		t.Fatalf("ranker 1 alive=%v, Restarts()=%d, want true and 1", set.alive[1], sup.Restarts())
	}
	sup.Probe()
	if set.restarts[1] != 1 {
		t.Fatal("healthy ranker restarted again")
	}
}

// A failed restart is retried after one probe interval, the wait
// doubling per further failure and capped at maxBackoffProbes probes.
// The zero RNG draw makes every jitter factor exactly 1.
func TestSupervisorBacksOffFailedRestarts(t *testing.T) {
	set := newFakeSet(1)
	set.fail[0] = fmt.Errorf("still dead")
	clk := &fakeClock{}
	sup, err := NewSupervisor(set, clk, constRNG{}, SupervisorConfig{ProbeEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for n, backoff := range []float64{10, 20, 40, 80, 160, 160, 160} {
		sup.Probe() // attempt n+1 fails
		if set.restarts[0] != n+1 {
			t.Fatalf("restarts = %d at t=%v, want %d", set.restarts[0], clk.now, n+1)
		}
		clk.now += backoff - 1
		sup.Probe() // still backing off
		if set.restarts[0] != n+1 {
			t.Fatalf("restart tried %v into a %v backoff", backoff-1, backoff)
		}
		clk.now++
	}
	set.fail[0] = nil
	sup.Probe()
	if !set.alive[0] || sup.Restarts() != 1 {
		t.Fatalf("alive = %v, Restarts() = %d; want a successful last try", set.alive[0], sup.Restarts())
	}
}

// Jitter only ever stretches a backoff, and by less than
// supervisorJitter of it.
func TestSupervisorJitterBound(t *testing.T) {
	set := newFakeSet(1)
	set.fail[0] = fmt.Errorf("still dead")
	clk := &fakeClock{}
	sup, err := NewSupervisor(set, clk, constRNG{f: 0.999}, SupervisorConfig{ProbeEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	sup.Probe() // fails at t=0: backoff 10, jittered into [10, 11)
	clk.now = 10
	sup.Probe()
	if set.restarts[0] != 1 {
		t.Fatal("jitter shortened the backoff")
	}
	clk.now = 10 * (1 + supervisorJitter)
	sup.Probe()
	if set.restarts[0] != 2 {
		t.Fatal("jitter stretched the backoff past its bound")
	}
}

func TestSupervisorRunStopsWithWaiter(t *testing.T) {
	set := newFakeSet(1)
	set.alive[0] = true
	sup, err := NewSupervisor(set, &fakeClock{}, constRNG{f: 0.5}, SupervisorConfig{ProbeEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var waits []float64
	sup.Run(countWaiter{waits: &waits, max: 3})
	if len(waits) != 3 {
		t.Fatalf("waited %d times, want 3", len(waits))
	}
	for _, d := range waits {
		if d < 1 || d >= 1+supervisorJitter {
			t.Fatalf("probe wait %v outside [1, %v)", d, 1+supervisorJitter)
		}
	}
}

// countWaiter records up to max waits, then reports shutdown.
type countWaiter struct {
	waits *[]float64
	max   int
}

func (w countWaiter) Wait(d float64) bool {
	if len(*w.waits) >= w.max {
		return false
	}
	*w.waits = append(*w.waits, d)
	return true
}
