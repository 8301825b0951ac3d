package dprcore

import (
	"fmt"
	"math"
)

// RestartMode picks the state a churned ranker comes back with.
type RestartMode int

const (
	// RestartCold brings the ranker back from R0 = 0 (the zero value).
	RestartCold RestartMode = iota
	// RestartCheckpoint restores its last snapshot saved to
	// Deployment.Checkpoints, rewinding at most Checkpoint.Every rounds.
	RestartCheckpoint
	// RestartWarm restores the state it crashed with — §4.2's
	// "suspend itself as its wish": the outage rewinds nothing.
	RestartWarm
)

// ChurnEvent is one scripted outage — §4.2's "sleep for some time,
// suspend itself as its wish, or even shutdown" as one crash/restart:
// at CrashAt the ranker's host goes down, its loop stops and the
// reliable layer forgets it; at RestartAt it comes back with the state
// its Restart mode picks. Both drivers run the same schedule; times
// are on the driver's one time axis (virtual time in the simulator,
// nanoseconds since the live cluster's epoch), FaultConfig's too.
type ChurnEvent struct {
	// Ranker is the index of the ranker to crash.
	Ranker int
	// CrashAt and RestartAt bound the outage: finite, with
	// 0 <= CrashAt < RestartAt.
	CrashAt, RestartAt float64
	// Restart is the state the ranker restarts with (default cold).
	Restart RestartMode
}

// validateChurn checks a schedule over k rankers — the one outage
// validator. Two windows on one ranker may not overlap or touch,
// whatever their modes: a ranker must be up between its outages, or a
// restart would meet a ranker that never crashed.
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
		if ev.Restart < RestartCold || ev.Restart > RestartWarm {
			return fmt.Errorf("dprcore: churn %d has unknown restart mode %d", i, ev.Restart)
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
		needLoad = needLoad || ev.Restart == RestartCheckpoint
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
		return nil, fmt.Errorf("dprcore: checkpoint churn needs a *MemCheckpointer sink (or nil for the default), got %T",
			p.Checkpoint.Sink)
	}
	return mem, nil
}

// RestartFrom is the one restart rule, applied as ev's ranker crashes:
// it returns the snapshot the ranker restarts from — nil when cold, its
// last checkpoint, or, when warm, snapshot() of the state it crashed
// with — and whether that is a checkpoint restore (a Recoveries count).
// A checkpoint restart before the first save comes back cold.
func (d *Deployment) RestartFrom(ev ChurnEvent, snapshot func() []byte) ([]byte, bool) {
	switch ev.Restart {
	case RestartCheckpoint:
		data, _, ok := d.Checkpoints.Load(ev.Ranker)
		return data, ok
	case RestartWarm:
		return snapshot(), false
	}
	return nil, false
}
