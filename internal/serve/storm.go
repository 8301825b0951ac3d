package serve

import (
	"time"

	"p2prank/internal/metrics"
)

// Clock is a storm's time source: the host's in the commands, a
// scripted one in tests.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until stop closes, and reports whether the
	// full wait elapsed. A nil stop never closes.
	Sleep(d time.Duration, stop <-chan struct{}) bool
}

// WallClock is the host clock.
type WallClock struct{}

func (WallClock) Now() time.Time { return time.Now() }

func (WallClock) Sleep(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// Storm is the query load loop behind `dprsim -exp serve`, `dprsim -exp
// degrade` and `dprnode -qps`: it paces, times each query, and reduces
// the samples to achieved QPS and latency percentiles.
//
// With QPS set the storm is open-loop: query i is due at
// start + (i+1)/QPS whether or not its predecessors have returned, and
// its latency runs from that intended send time, so one stall shows up
// in every query that had to queue behind it instead of vanishing from
// the percentiles (coordinated omission). With QPS zero the loop is
// closed — each query is sent when the last one is done — and latency
// runs from the actual send. A storm keeps one latency sample per
// answered query until it ends, an unbounded one (Queries zero) too.
type Storm struct {
	Clock   Clock           // nil means WallClock
	Queries int             // 0 runs until Stop closes
	QPS     int             // 0 means closed loop
	Stop    <-chan struct{} // when closed, ends the storm before the next query
	// Serve is the timed call.
	Serve func(i int) error
	// After, when set, runs off the latency clock with query i's latency
	// and Serve's error — the place for bookkeeping and for whatever must
	// happen before query i+1 (a bench's staleness ticks and republishes)
	// — and decides whether that error ends the storm. Without it any
	// Serve error does.
	After func(i int, latency time.Duration, err error) error
}

// StormStats summarises one storm. The percentiles cover the queries
// Serve answered without error.
type StormStats struct {
	Sent, Answered       int
	WallSeconds, QPS     float64
	P50Micros, P99Micros float64
}

// Run drives the storm to its end, Stop, or the first error.
func (s Storm) Run() (StormStats, error) {
	clock := s.Clock
	if clock == nil {
		clock = WallClock{}
	}
	var interval time.Duration
	if s.QPS > 0 {
		interval = time.Second / time.Duration(s.QPS)
	}
	var (
		st    StormStats
		lat   = make([]float64, 0, s.Queries)
		start = clock.Now()
		err   error
	)
loop:
	for i := 0; err == nil && (s.Queries == 0 || i < s.Queries); i++ {
		select {
		case <-s.Stop:
			break loop
		default:
		}
		sent := clock.Now()
		if interval > 0 {
			due := start.Add(time.Duration(i+1) * interval)
			if wait := due.Sub(sent); wait > 0 && !clock.Sleep(wait, s.Stop) {
				break
			}
			sent = due
		}
		err = s.Serve(i)
		took := clock.Now().Sub(sent)
		st.Sent++
		if err == nil {
			st.Answered++
			lat = append(lat, took.Seconds())
		}
		if s.After != nil {
			err = s.After(i, took, err)
		}
	}
	st.WallSeconds = clock.Now().Sub(start).Seconds()
	if st.WallSeconds > 0 {
		st.QPS = float64(st.Sent) / st.WallSeconds
	}
	st.P50Micros = metrics.Percentile(lat, 50) * 1e6
	st.P99Micros = metrics.Percentile(lat, 99) * 1e6
	return st, err
}
