package dprcore

import (
	"fmt"
	"math"
)

// ChurnEvent is one scripted ranker crash/restart cycle — §4.2's
// "shutdown", taken as a full node failure: the crashed ranker loses
// its in-memory state and its host drops traffic; at RestartAt it
// comes back cold (R0 = 0) or from its last checkpoint. Both drivers
// run the same schedule; times are in the driver's units on its one
// time axis — virtual time in the simulator, nanoseconds since the live
// cluster's epoch — the axis FaultConfig's windows are measured on.
type ChurnEvent struct {
	// Ranker is the index of the ranker to crash.
	Ranker int
	// CrashAt and RestartAt bound the outage: finite, with
	// 0 <= CrashAt < RestartAt.
	CrashAt, RestartAt float64
	// FromCheckpoint restarts the ranker from its last checkpoint
	// instead of cold.
	FromCheckpoint bool
}

// validateChurn checks a schedule over k rankers. Two windows on one
// ranker may not overlap or touch: a ranker must be up between its
// outages, or a restart would meet a ranker that never crashed.
func validateChurn(k int, churn []ChurnEvent) error {
	for i, ev := range churn {
		if ev.Ranker < 0 || ev.Ranker >= k {
			return fmt.Errorf("dprcore: churn %d targets ranker %d of %d", i, ev.Ranker, k)
		}
		// The negated form also refuses NaN, which compares false.
		if math.IsInf(ev.RestartAt, 0) || !(ev.CrashAt >= 0 && ev.RestartAt > ev.CrashAt) {
			return fmt.Errorf("dprcore: churn %d window [%v, %v) invalid, need finite 0 <= CrashAt < RestartAt",
				i, ev.CrashAt, ev.RestartAt)
		}
		for j, prev := range churn[:i] {
			if prev.Ranker == ev.Ranker && prev.CrashAt <= ev.RestartAt && ev.CrashAt <= prev.RestartAt {
				return fmt.Errorf("dprcore: churn %d window [%v, %v) meets churn %d [%v, %v) on ranker %d",
					i, ev.CrashAt, ev.RestartAt, j, prev.CrashAt, prev.RestartAt, ev.Ranker)
			}
		}
	}
	return nil
}

// ChurnCheckpoints validates a churn schedule over k rankers and
// returns the store its checkpointed restarts load from — nil when no
// event restarts from a checkpoint. When one does, it installs an
// in-memory sink in p (a *MemCheckpointer, saving every 5 rounds
// unless p.Checkpoint.Every is set) and refuses any other sink type: a
// driver reads the snapshot back from the store the loops wrote.
func ChurnCheckpoints(p *Params, k int, churn []ChurnEvent) (*MemCheckpointer, error) {
	if err := validateChurn(k, churn); err != nil {
		return nil, err
	}
	needLoad := false
	for _, ev := range churn {
		needLoad = needLoad || ev.FromCheckpoint
	}
	if !needLoad {
		return nil, nil
	}
	if p.Checkpoint.Every == 0 {
		p.Checkpoint.Every = 5
	}
	if p.Checkpoint.Sink == nil {
		p.Checkpoint.Sink = NewMemCheckpointer()
	}
	mem, ok := p.Checkpoint.Sink.(*MemCheckpointer)
	if !ok {
		return nil, fmt.Errorf("dprcore: FromCheckpoint churn needs a *MemCheckpointer sink (or nil for the default), got %T",
			p.Checkpoint.Sink)
	}
	return mem, nil
}
