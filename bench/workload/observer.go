package workload

import (
	"time"

	"p2prank/bench/measure"
	"p2prank/internal/telemetry"
)

// computeObserver is the traced run's hook into the Observer seam: it
// times every compute phase (ComputeStart → ComputeEnd) and counts the
// chunks each commit phase emits. One slot per ranker and no lock — a
// ranker's hooks are serialized by its driver, and different rankers
// (the simulator's same-instant compute batch, the live peers'
// goroutines) touch different slots.
type computeObserver struct {
	telemetry.Noop
	rec   *measure.Recorder
	slots []computeSlot
}

type computeSlot struct {
	start         time.Time
	spans         [][3]int64 // start, end (recorder time base), inner iterations
	chunks, links int64
	_             [64]byte // keep neighbouring rankers off one cache line
}

func newComputeObserver(k int, rec *measure.Recorder) *computeObserver {
	o := &computeObserver{rec: rec, slots: make([]computeSlot, k)}
	for i := range o.slots {
		o.slots[i].spans = make([][3]int64, 0, 64)
	}
	return o
}

func (o *computeObserver) ComputeStart(ranker int, _ int64) {
	o.slots[ranker].start = time.Now()
}

func (o *computeObserver) ComputeEnd(ranker int, _ int64, s telemetry.ComputeStats) {
	sl := &o.slots[ranker]
	sl.spans = append(sl.spans, [3]int64{o.rec.Since(sl.start), o.rec.Since(time.Now()), int64(s.InnerIterations)})
}

func (o *computeObserver) ChunkSent(ranker int, c telemetry.ChunkStats) {
	sl := &o.slots[ranker]
	sl.chunks++
	sl.links += c.Links
}

// report merges the slots into the recorder as children of the run
// span and sets the compute and traffic metrics. set is r.exact where
// the counts repeat for a seed (the simulator) and r.layer where they
// do not (live peers, whose compute spans also include the time a
// runnable goroutine waited for one of the two cores — spanName says
// so).
func (o *computeObserver) report(r *run, runSpan int32, spanName string, set func(string, float64)) {
	var busy, spans, iters, chunks, links int64
	for i := range o.slots {
		sl := &o.slots[i]
		for _, s := range sl.spans {
			r.rec.Add(runSpan, "dprcore", spanName, s[0], s[1], s[2])
			busy += s[1] - s[0]
			iters += s[2]
		}
		spans += int64(len(sl.spans))
		chunks += sl.chunks
		links += sl.links
	}
	r.layer("dprcore.compute_s", float64(busy)/1e9)
	set("dprcore.compute_spans", float64(spans))
	set("dprcore.inner_iters", float64(iters))
	set("dprcore.chunks_sent", float64(chunks))
	set("dprcore.links_sent", float64(links))
	set("dprcore.payload_mb", float64(links*telemetry.DefaultBytesPerLink)/(1<<20))
}
