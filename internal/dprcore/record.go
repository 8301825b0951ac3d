package dprcore

import (
	"p2prank/internal/telemetry"
	"p2prank/internal/vecmath"
)

// Sample is one point of a run's time series, at Time on the driver's
// axis: virtual time in the simulator, nanoseconds since the live
// cluster's epoch.
type Sample struct {
	Time float64
	// RelErr is ‖R − R*‖₁/‖R*‖₁ against centralized PageRank.
	RelErr float64
	// AvgRank is the mean page rank (the Figure 7 metric).
	AvgRank float64
	// MeanLoops is the mean main-loop count across rankers.
	MeanLoops float64
}

// Record is what one run reports, whichever driver ran it.
type Record struct {
	// Samples is the time series, one entry per sampling interval.
	Samples []Sample
	// Final is the assembled global rank vector at the end, and RelErr
	// its relative error.
	Final  vecmath.Vec
	RelErr float64
	// ConvergedAt is the time the target was reached, or -1, and
	// LoopsAtConvergence the mean ranker loop count then (or at the end
	// when it was not) — the Figure 8 "number of iterations" metric.
	ConvergedAt        float64
	LoopsAtConvergence float64
	// FaultStats and ReliableStats count injected faults and the
	// reliable layer's work (zero for a layer that is off).
	FaultStats    FaultStats
	ReliableStats ReliableStats
	// Recoveries is the number of checkpoint restores churn restarts
	// performed (cold and warm restarts don't count).
	Recoveries int64
}

// Ranker is what a run record reads of one ranker: a Loop, or a driver
// that owns one.
type Ranker interface {
	Ranks() vecmath.Vec
	Loops() int64
}

// Assemble writes every ranker's local ranks, ranker(i)'s for ranker i,
// into the page-indexed global vector dst, and returns the rankers'
// mean loop count.
func (d *Deployment) Assemble(dst vecmath.Vec, ranker func(i int) Ranker) (meanLoops float64) {
	var loops int64
	for i, pages := range d.Assign.Pages {
		rk := ranker(i)
		r := rk.Ranks()
		for li, p := range pages {
			dst[p] = r[li]
		}
		loops += rk.Loops()
	}
	return float64(loops) / float64(len(d.Assign.Pages))
}

// Sample is the one sampling step of both drivers: at time t it
// assembles the rankers into rec.Final, measures it against ref,
// appends the sample to rec and reports it to Params.Observer. It
// returns whether this sample first reached target (0 never does),
// setting ConvergedAt and LoopsAtConvergence when it did.
func (d *Deployment) Sample(rec *Record, t float64, ref vecmath.Vec, target float64, ranker func(i int) Ranker) bool {
	if rec.Final == nil {
		rec.Final = vecmath.NewVec(len(ref))
	}
	s := Sample{Time: t, MeanLoops: d.Assemble(rec.Final, ranker)}
	s.RelErr, s.AvgRank = vecmath.RelErr1(rec.Final, ref), rec.Final.Mean()
	rec.Samples = append(rec.Samples, s)
	rec.RelErr = s.RelErr
	converged := target > 0 && s.RelErr <= target && rec.ConvergedAt < 0
	if obs := d.Params.Observer; obs != nil {
		obs.Milestone(telemetry.Milestone{Time: t, RelErr: s.RelErr, MeanLoops: s.MeanLoops, Converged: converged})
	}
	if converged {
		rec.ConvergedAt, rec.LoopsAtConvergence = t, s.MeanLoops
	}
	return converged
}

// Tally adds a sender stack's fault and reliable counters to rec.
func (rec *Record) Tally(s Stack) {
	f, r := s.Faults.Stats(), s.Reliable.Stats()
	rec.FaultStats.Dropped += f.Dropped
	rec.FaultStats.Delayed += f.Delayed
	rec.FaultStats.Duplicated += f.Duplicated
	rec.FaultStats.Partitioned += f.Partitioned
	rec.FaultStats.Straggled += f.Straggled
	rec.ReliableStats.Retries += r.Retries
	rec.ReliableStats.Acks += r.Acks
}
