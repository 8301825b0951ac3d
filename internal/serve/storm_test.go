package serve

import (
	"errors"
	"math"
	"testing"
	"time"
)

// scriptClock is a hand-cranked Clock: Sleep advances it by exactly the
// requested wait, and a test's Serve hook advances it to model service
// time.
type scriptClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *scriptClock) Now() time.Time { return c.now }

func (c *scriptClock) Sleep(d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	return true
}

func TestStormPacesAtIntendedSendTimes(t *testing.T) {
	c := &scriptClock{now: time.Unix(100, 0)}
	start := c.now
	var sentAt []time.Duration
	st, err := Storm{
		Clock: c, Queries: 5, QPS: 100, // one query every 10 ms
		Serve: func(i int) error {
			sentAt = append(sentAt, c.now.Sub(start))
			c.now = c.now.Add(2 * time.Millisecond)
			return nil
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range sentAt {
		if want := time.Duration(i+1) * 10 * time.Millisecond; at != want {
			t.Errorf("query %d sent at %v, want %v", i, at, want)
		}
	}
	if st.Sent != 5 || st.Answered != 5 || st.P50Micros != 2000 || st.P99Micros != 2000 {
		t.Fatalf("stats %+v, want 5 answered at 2000µs", st)
	}
	if want := 5 / 0.052; math.Abs(st.QPS-want) > 1e-9 || st.WallSeconds != 0.052 {
		t.Fatalf("wall %v s, %v qps; want 0.052 s, %v qps", st.WallSeconds, st.QPS, want)
	}
}

// A stalled query must inflate the latency of every query scheduled
// behind it: they were due while it ran, and a closed-loop measurement
// taken from the actual send would report them all as fast.
func TestStormChargesQueueingToLateQueries(t *testing.T) {
	c := &scriptClock{now: time.Unix(100, 0)}
	var latencies []time.Duration
	st, err := Storm{
		Clock: c, Queries: 6, QPS: 100,
		Serve: func(i int) error {
			service := time.Millisecond
			if i == 1 {
				service = 35 * time.Millisecond // stalls past queries 2-4's send times
			}
			c.now = c.now.Add(service)
			return nil
		},
		After: func(_ int, latency time.Duration, err error) error {
			latencies = append(latencies, latency)
			return err
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Due at 10, 20, ..., 60 ms. Query 1 runs 20→55; 2, 3, 4 were due at
	// 30, 40, 50 and finish at 56, 57, 58; query 5 is back on schedule.
	want := []time.Duration{1, 35, 26, 17, 8, 1}
	for i, w := range want {
		if latencies[i] != w*time.Millisecond {
			t.Errorf("query %d latency %v, want %v ms", i, latencies[i], w)
		}
	}
	if st.P99Micros != 35000 || st.P50Micros != 8000 {
		t.Fatalf("p50 %v µs, p99 %v µs; want 8000 and 35000", st.P50Micros, st.P99Micros)
	}
	// It never sleeps while behind schedule.
	if len(c.sleeps) != 3 {
		t.Fatalf("slept %d times (%v), want 3: before queries 0, 1 and 5", len(c.sleeps), c.sleeps)
	}
}

func TestStormClosedLoopTimesFromActualSend(t *testing.T) {
	c := &scriptClock{now: time.Unix(100, 0)}
	st, err := Storm{
		Clock: c, Queries: 4,
		Serve: func(int) error { c.now = c.now.Add(3 * time.Millisecond); return nil },
		After: func(int, time.Duration, error) error { c.now = c.now.Add(time.Second); return nil }, // off the latency clock
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.sleeps) != 0 || st.P99Micros != 3000 || st.WallSeconds != 4.012 {
		t.Fatalf("sleeps %v, stats %+v", c.sleeps, st)
	}
}

func TestStormStopAndErrors(t *testing.T) {
	// Stop closes mid-storm: an unbounded storm ends before the next query.
	c := &scriptClock{now: time.Unix(100, 0)}
	stop := make(chan struct{})
	st, err := Storm{
		Clock: c, QPS: 1000, Stop: stop,
		Serve: func(i int) error {
			if i == 2 {
				close(stop)
			}
			return nil
		},
	}.Run()
	if err != nil || st.Sent != 3 {
		t.Fatalf("stopped storm: sent %d, err %v; want 3, nil", st.Sent, err)
	}

	// Without After, a Serve error ends the storm and is returned.
	boom := errors.New("boom")
	st, err = Storm{Clock: c, Queries: 10, Serve: func(i int) error {
		if i == 4 {
			return boom
		}
		return nil
	}}.Run()
	if !errors.Is(err, boom) || st.Sent != 5 || st.Answered != 4 {
		t.Fatalf("failing storm: %+v, err %v", st, err)
	}

	// After may swallow it; failed queries stay out of the percentiles.
	st, err = Storm{Clock: c, Queries: 10,
		Serve: func(i int) error {
			if i%2 == 1 {
				return boom
			}
			return nil
		},
		After: func(int, time.Duration, error) error { return nil },
	}.Run()
	if err != nil || st.Sent != 10 || st.Answered != 5 {
		t.Fatalf("tolerant storm: %+v, err %v", st, err)
	}
}

// On the wall clock, Stop interrupts a pacing sleep promptly.
func TestStormStopInterruptsWallClockSleep(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan StormStats, 1)
	go func() {
		st, _ := Storm{QPS: 1, Stop: stop, Serve: func(int) error { return nil }}.Run() // first query due in 1 s
		done <- st
	}()
	close(stop)
	select {
	case st := <-done:
		if st.Sent != 0 {
			t.Fatalf("sent %d queries after stop", st.Sent)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("storm still sleeping 500 ms after stop")
	}
}
