// Package workload defines the benchmark's six workloads, the metrics
// they report and the layer replays of the traced run. Everything is
// measured through the public functions of the repository's layers;
// the generators here own their laws (crawl shape, query plan, fault
// schedule) so the benchmark does not move when the experiment
// presets are rewritten.
package workload

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"p2prank/bench/measure"
)

// Params selects one repeat of one workload. A repeat runs in its own
// process, so its peak RSS and set-up time are its own.
type Params struct {
	Name  string
	Seed  uint64
	Trace bool
	// OutDir receives the trace file and any scratch files.
	OutDir string
}

// Result is what one repeat measured.
type Result struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Env      measure.Env `json:"env"`
	// Timed holds this repeat's timings of the two timed end-to-end
	// metrics, in seconds, as rows cut into the same fixed slices of
	// work (see measure.QuietSum, which the run's value is taken with
	// over the rows of all its repeats). setup_s: one row per set-up (one
	// a repeat, but one per cluster on live_tcp), one column per set-up
	// step. wall_s: one row per repetition of the timed
	// phase — an engine run, a drain pass, a cluster's first 600 rounds.
	// A traced repeat fills them too (the trace overhead is their ratio
	// to an untraced repeat's) but they are not the reported ones.
	Timed map[string][][]float64 `json:"timed"`
	// PeakRSSMB is the process's VmHWM when the repeat ended.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Layer holds the per-layer values; traced repeats only.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Exact holds the counts that must repeat bit for bit for a given
	// seed; the parent compares them across repeats.
	Exact map[string]float64 `json:"exact,omitempty"`
	// MeasuredS is how long the timed phases took, which is what the
	// parent adds up against its --seconds budget.
	MeasuredS float64 `json:"measured_s"`
	// Attempted counts operations: every query, every rank run and
	// every correctness check. Failed are the ones that went wrong.
	// Refused are the queries the workload's own fault schedule makes
	// the tier turn away (a shed, an answer with no shard reachable):
	// they are not failures of the program, and answered_share is what
	// holds their share to a bound.
	Attempted int64    `json:"attempted"`
	Refused   int64    `json:"refused"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

// run is the state of one repeat in progress.
type run struct {
	p     Params
	rec   *measure.Recorder // nil unless traced
	root  int32
	res   *Result
	setup []float64 // seconds, one entry per set-up step so far
}

// Run executes one repeat of the named workload in this process.
func Run(p Params) (*Result, error) {
	runIt := workloads[p.Name]
	if runIt == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", p.Name, Names())
	}
	r := &run{
		p:    p,
		root: -1,
		res: &Result{
			Workload: p.Name, Traced: p.Trace, Env: measure.ReadEnv(p.Seed),
			Timed: map[string][][]float64{}, Exact: map[string]float64{},
		},
	}
	if p.Trace {
		r.rec = measure.NewRecorder()
		r.root = r.rec.Begin(-1, "bench", p.Name)
		r.res.Layer = map[string]float64{}
	}
	if err := runIt(r); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if len(r.res.Timed[SetupS]) == 0 {
		r.setupRow()
	}
	r.res.PeakRSSMB = measure.PeakRSSMB()
	if p.Trace {
		r.rec.End(r.root, 0)
		path := filepath.Join(p.OutDir, "trace-"+p.Name+".json")
		if err := r.rec.WriteJSON(path); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// prep runs one set-up step: it is timed as one slice of setup_s,
// recorded as a span of the given layer and, when metric is set,
// reported as that per-layer metric in a traced repeat. A workload
// makes the same prep calls in the same order in every repeat.
func (r *run) prep(layer, name, metric string, fn func() error) error {
	id := r.rec.Begin(r.root, layer, name)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	r.rec.End(id, 0)
	r.setup = append(r.setup, d.Seconds())
	if metric != "" {
		r.layer(metric, d.Seconds())
	}
	if err != nil {
		return fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return nil
}

// setupRow records the set-up steps timed so far as one row of setup_s.
func (r *run) setupRow() {
	r.res.Timed[SetupS] = append(r.res.Timed[SetupS], append([]float64(nil), r.setup...))
}

// settle collects what came before, so a timed phase starts from a
// quiet heap and pays only for the garbage it makes itself. It is on
// neither clock.
func (r *run) settle() {
	id := r.rec.Begin(r.root, "bench", "settle")
	runtime.GC()
	r.rec.End(id, 0)
}

// timed runs one measured phase under a span and adds it to the
// repeat's measured time.
func (r *run) timed(layer, name string, fn func() (count int64, err error)) (time.Duration, error) {
	id := r.rec.Begin(r.root, layer, name)
	t := time.Now()
	n, err := fn()
	d := time.Since(t)
	r.rec.End(id, n)
	r.res.MeasuredS += d.Seconds()
	return d, err
}

// replay times one off-the-clock layer replay of the traced run.
func (r *run) replay(layer, name string, fn func() int64) time.Duration {
	id := r.rec.Begin(r.root, layer, "replay."+name)
	t := time.Now()
	n := fn()
	d := time.Since(t)
	r.rec.End(id, n)
	return d
}

// wall adds one repetition of the timed phase: the seconds each of
// its slices took.
func (r *run) wall(slices ...float64) {
	r.res.Timed[WallS] = append(r.res.Timed[WallS], slices)
}

// layer sets a per-layer metric; a no-op in untraced repeats. The
// names are BENCHMARK.json's: the parent refuses one it does not list.
func (r *run) layer(name string, v float64) {
	if r.res.Layer != nil {
		r.res.Layer[name] = v
	}
}

// exact records a count that must repeat bit for bit for this seed.
// In a traced repeat it is also the per-layer metric of that name.
func (r *run) exact(name string, v float64) {
	r.res.Exact[name] = v
	r.layer(name, v)
}

// check counts one correctness check as an operation, failed when it
// does not hold, and returns ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		if len(r.res.Problems) < 20 {
			r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}
