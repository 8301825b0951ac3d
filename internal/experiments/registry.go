package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/par"
	"p2prank/internal/partition"
	"p2prank/internal/serve"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// Experiment is one `dprsim -exp` scenario, declared once in the
// registry below: everything the command prints about it — the usage
// list, the unknown-name error, the caption, the tables — comes from
// here, and Run is the only way to run it.
type Experiment struct {
	Name    string
	Summary string
	// K, Ks and MaxTime are the defaults for the same Params fields
	// (the paper's values); one the experiment does not read is zero.
	K       int
	Ks      []int
	MaxTime float64
	// plan is the cells the experiment sweeps and the run of one.
	plan declaration
}

// Params are an experiment's inputs, one field per dprsim flag.
type Params struct {
	Workload
	// K is the ranker count and Ks the ranker counts of a sweep; zero
	// values take the experiment's defaults.
	K  int
	Ks []int
	// MaxTime is every simulated run's virtual-time horizon; zero takes
	// the experiment's default.
	MaxTime float64
	// Queries, QPS and TopK shape the serving storms.
	Queries, QPS, TopK int
	// Meter is the process side of the wall-clock experiments.
	Meter Meter
	// Log, when set, receives a progress line per long run.
	Log io.Writer
}

// Meter is what the wall-clock experiments (scale, serve, degrade)
// need from the process that runs them. The command injects it, so
// this package reads no clock itself and stays inside the nowallclock
// analyzer's scope; tests inject a scripted one. Those experiments
// refuse to run without a Clock and a PeakRSSMB.
type Meter struct {
	// Clock times the scale runs and the query storms.
	Clock serve.Clock
	// PeakRSSMB reports the process's resident-set high-water mark.
	PeakRSSMB func() float64
	// OnDisk, when set, materializes a workload as a mapped graph file
	// outside this process's heap and returns it with its cleanup; the
	// scale sweep ranks that instead of an in-memory crawl.
	OnDisk func(w Workload) (*webgraph.Graph, func(), error)
	// Expose, when set, serves the first serve-sweep frontend to
	// outside clients until it fails.
	Expose func(fe *serve.Frontend, topk int) error
}

// ErrNoMeter is the error a wall-clock experiment returns when
// Params.Meter has no Clock or no PeakRSSMB.
var ErrNoMeter = errors.New("experiments: wall-clock experiment needs a Meter with a Clock and a PeakRSSMB")

// Result is what an experiment produces: a caption, then typed rows or
// a figure's curves. WriteText and WriteCSV lay the rows out as tables
// when they write.
type Result struct {
	Caption string
	// Rows is the experiment's table as typed rows: a slice of
	// `tab`-tagged structs ([]Fig8Row, []CutRow, ...); nil for a figure.
	Rows any
	// Curves are a figure's series over virtual time.
	Curves []*metrics.Series
	// layout renders Rows; nil renders them as one table.
	layout func() []*metrics.Table
}

func (r *Result) tables() []*metrics.Table {
	switch {
	case r.layout != nil:
		return r.layout()
	case r.Rows != nil:
		return []*metrics.Table{metrics.TableOf(r.Rows)}
	}
	return nil
}

// WriteText renders the result for a terminal: the caption, each table
// aligned (a titled table after a blank line and its title), curves as
// CSV columns.
func (r *Result) WriteText(w io.Writer) error {
	if r.Caption != "" {
		fmt.Fprintln(w, r.Caption)
	}
	for _, t := range r.tables() {
		if t.Title != "" {
			fmt.Fprintf(w, "\n%s\n", t.Title)
		}
		if _, err := io.WriteString(w, t.String()); err != nil {
			return err
		}
	}
	return r.writeCurves(w)
}

// WriteCSV renders the result as CSV: tables separated by blank lines,
// each title as a `# ` comment line, then the curves.
func (r *Result) WriteCSV(w io.Writer) error {
	for i, t := range r.tables() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if t.Title != "" {
			fmt.Fprintf(w, "# %s\n", t.Title)
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return r.writeCurves(w)
}

func (r *Result) writeCurves(w io.Writer) error {
	if len(r.Curves) == 0 {
		return nil
	}
	return metrics.WriteCSV(w, r.Curves...)
}

// need is what an experiment's cells need from the runner.
type need uint8

const (
	bed   need = iota // simulations on the crawl and R*, built once
	crawl             // cells that read the crawl, built once, but not R*
	pure              // simulations that need no crawl
	timed             // wall-clock runs: serial, each with the process to itself, on the Meter
	storm             // timed query storms of Queries queries, TopK results each, paced at QPS
)

// declaration is a plan behind an interface the registry can hold.
type declaration interface {
	needs() need
	sweep(p Params) (*Result, error)
}

// plan declares an experiment: the cells it sweeps and the run of one
// cell. Everything else — defaults, validation, the bed, the fan-out,
// the Meter — is the runner's.
type plan[C, R any] struct {
	caption string
	need    need
	cells   func(p Params) []C
	cell    func(x *env, c C) (R, error)
	// rows turns the cells' outputs, in cell order, into the result's
	// rows or curves; nil makes them its rows as they are.
	rows func(x *env, out []R, res *Result) error
}

func (d plan[C, R]) needs() need { return d.need }

// sweep builds the bed if the cells need it, runs every cell, and
// assembles the result. Simulated cells are independent — each owns its
// simulator and rng — so they run on the worker pool, and the error
// returned is the one a serial loop would have stopped at; timed cells
// run one at a time, in cell order.
func (d plan[C, R]) sweep(p Params) (*Result, error) {
	x := &env{Params: p}
	if d.need <= crawl {
		var err error
		if x.g, err = p.Generate(); err == nil && d.need == bed {
			x.ref, err = engine.Reference(x.g, defaultAlpha)
		}
		if err != nil {
			return nil, err
		}
	}
	cs := d.cells(p)
	out, errs := make([]R, len(cs)), make([]error, len(cs))
	one := func(i int) { out[i], errs[i] = d.cell(x, cs[i]) }
	if d.need < timed {
		par.Default().Run(len(cs), one)
	} else {
		for i := range cs {
			if one(i); errs[i] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Caption: d.caption}
	if strings.HasSuffix(d.caption, "K=") {
		res.Caption += strconv.Itoa(x.K)
	}
	if d.rows == nil {
		res.Rows = out
		return res, nil
	}
	return res, d.rows(x, out, res)
}

// env is what one cell runs on: the run's checked Params and the bed —
// the crawl and its centralized reference ranks (the dominant fixed
// cost), built once before the fan-out for the cells that need them.
type env struct {
	Params
	g   *webgraph.Graph
	ref vecmath.Vec
}

// config is one run's engine configuration on the bed: hash-by-site
// partition and indirect transmission, the paper's recommended set-up,
// sampled every sampleEvery up to the run's horizon — for the caller
// to adjust.
func (x *env) config(k int, p dprcore.Params, sampleEvery float64) engine.Config {
	return engine.Config{
		Params:      p,
		Graph:       x.g,
		K:           k,
		Seed:        x.Seed,
		Reference:   x.ref,
		Strategy:    partition.BySite,
		Transport:   transport.Indirect,
		SampleEvery: sampleEvery,
		MaxTime:     x.MaxTime,
	}
}

func (x *env) logf(format string, args ...any) {
	if x.Log != nil {
		fmt.Fprintf(x.Log, "dprsim: "+format+"\n", args...)
	}
}

// pair is a (K, v) cell.
type pair[V any] struct {
	k int
	v V
}

// pairs is every (K, v) cell, K-major.
func pairs[V any](ks []int, vs ...V) []pair[V] {
	out := make([]pair[V], 0, len(ks)*len(vs))
	for _, k := range ks {
		for _, v := range vs {
			out = append(out, pair[V]{k, v})
		}
	}
	return out
}

func ks(p Params) []int { return p.Ks }

// these is a fixed list of cells.
func these[C any](cs ...C) func(Params) []C { return func(Params) []C { return cs } }

// figure declares Figure 6 or 7: the three curves over virtual time,
// captioned with the workload's statistics.
func figure(caption string, metric func(*dprcore.Sample) float64) declaration {
	return plan[curve, *metrics.Series]{
		caption: caption,
		cells:   these(curves...),
		cell: func(x *env, c curve) (*metrics.Series, error) {
			run, err := engine.Run(x.config(x.K, dprcore.Params{Alg: dprcore.DPR1, SendProb: c.sendProb, T1: c.t1, T2: c.t2}, 1))
			if err != nil {
				return nil, fmt.Errorf("experiments: curve %q: %w", c.name, err)
			}
			s := metrics.NewSeries(c.name)
			for i := range run.Samples {
				s.Add(run.Samples[i].Time, metric(&run.Samples[i]))
			}
			return s, nil
		},
		rows: func(x *env, out []*metrics.Series, res *Result) error {
			res.Caption += "\nworkload: " + strings.TrimSuffix(webgraph.ComputeStats(x.g).String(), "\n")
			res.Curves = out
			return nil
		},
	}
}

// faultMix is one degrade cell: the shard fraction cut off during the
// partition window and the fraction straggling all storm long.
type faultMix struct{ part, strag float64 }

var registry = []Experiment{
	{Name: "fig6", Summary: "relative error over time (K=1000)", K: 1000, MaxTime: 90,
		plan: figure("Figure 6: DPR1 relative error (%) over time, K=",
			func(s *dprcore.Sample) float64 { return s.RelErr * 100 })}, // the paper plots percent
	{Name: "fig7", Summary: "monotone average rank (K=100)", K: 100, MaxTime: 90,
		// The converged level sits near 0.25–0.3 because 8/15 of links
		// leave the dataset.
		plan: figure("Figure 7: DPR1 average rank over time (monotone), K=",
			func(s *dprcore.Sample) float64 { return s.AvgRank })},
	{Name: "fig8", Summary: "iterations vs ranker count", Ks: []int{2, 10, 100, 1000}, MaxTime: 6000,
		plan: plan[pair[dprcore.Algorithm], float64]{
			caption: "Figure 8: iterations to relative error 0.01% (p=1, T1=T2=15)",
			cells:   func(p Params) []pair[dprcore.Algorithm] { return pairs(p.Ks, dprcore.DPR1, dprcore.DPR2) },
			cell:    fig8Loops,
			rows:    fig8Rows,
		}},
	{Name: "transmission", Summary: "direct vs indirect measured traffic", Ks: []int{8, 16, 32, 64}, MaxTime: 30,
		plan: plan[pair[transport.Kind], TransmissionRow]{
			caption: "§4.4: measured per-iteration traffic vs formulas 4.1–4.4",
			cells:   func(p Params) []pair[transport.Kind] { return pairs(p.Ks, transport.Direct, transport.Indirect) },
			cell:    transmissionHalf,
			rows:    transmissionRows,
		}},
	{Name: "traffic", Summary: "§4.4 per-iteration traffic from telemetry", Ks: []int{8, 16, 32, 64}, MaxTime: 30,
		plan: plan[int, TrafficRow]{
			caption: "§4.4: per-iteration message/data counts from the telemetry seam",
			cells:   ks,
			cell:    traffic,
		}},
	{Name: "bandwidth", Summary: "convergence vs node uplink bandwidth", K: 16, MaxTime: 900,
		plan: plan[float64, BandwidthRow]{
			caption: "§4.5 measured: convergence vs per-node uplink bandwidth, K=",
			cells:   these[float64](0, 100000, 20000, 2000, 200),
			cell:    bandwidth,
		}},
	{Name: "cut", Summary: "§4.1 partition comparison", K: 32,
		plan: plan[partition.Strategy, CutRow]{
			caption: "§4.1: partition cut at K=",
			need:    crawl,
			cells:   these(partition.BySite, partition.ByPage, partition.Random),
			cell:    cut,
		}},
	{Name: "hops", Summary: "overlay hop counts vs N", Ks: []int{100, 1000, 10000},
		plan: plan[engine.OverlayKind, []HopsRow]{
			need:  pure,
			cells: these(engine.Pastry, engine.Chord),
			cell:  hops,
			rows: func(_ *env, out [][]HopsRow, res *Result) error {
				// One table per overlay.
				res.Rows = slices.Concat(out...)
				res.layout = func() []*metrics.Table {
					tables := make([]*metrics.Table, len(out))
					for i, rows := range out {
						tables[i] = metrics.TableOf(rows)
					}
					return tables
				}
				return nil
			},
		}},
	{Name: "faults", Summary: "convergence under injected message faults", K: 16, MaxTime: 900,
		plan: plan[float64, FaultRow]{
			caption: "Fault injection: DPR1 convergence under message drops, K=",
			cells:   these(0, 0.1, 0.3, 0.5),
			cell:    faults,
		}},
	{Name: "churn", Summary: "convergence with rankers crashing mid-run", K: 16, MaxTime: 900,
		plan: plan[int, ChurnRow]{
			caption: "Churn: DPR1 convergence with crash/checkpoint-restart rankers, K=",
			cells:   crashCounts,
			cell:    churn,
		}},
	{Name: "scale", Summary: "DPR1/DPR2 at N = 10³/10⁴/10⁵ with model validation", Ks: []int{1000, 10000, 100000}, MaxTime: 30,
		// In the given K order — ascending by default, so the monotone
		// peak-RSS mark tracks each decade's own peak.
		plan: plan[int, []*ScaleRow]{
			caption: "Paper scale: DPR under indirect transmission, 20 pages/ranker, batched delivery",
			need:    timed,
			cells:   ks,
			cell:    scale,
			rows: func(_ *env, out [][]*ScaleRow, res *Result) error {
				rows := slices.Concat(out...)
				res.Rows, res.layout = rows, func() []*metrics.Table { return scaleTables(rows) }
				return nil
			},
		}},
	{Name: "serve", Summary: "query storm over published rank snapshots", Ks: []int{1000, 10000},
		plan: plan[int, ServeRow]{
			caption: "Serving tier: distributed top-k over published rank snapshots, 20 pages/ranker",
			need:    storm,
			cells:   ks,
			cell:    serveStorm,
		}},
	{Name: "degrade", Summary: "degraded serving under partition/straggler faults", K: 256,
		plan: plan[faultMix, DegradeRow]{
			caption: "Degraded serving: admission + hedged fan-out under partition/straggler faults",
			need:    storm,
			cells:   these(faultMix{0, 0}, faultMix{0.1, 0}, faultMix{0.1, 0.25}, faultMix{0.3, 0}, faultMix{0.3, 0.25}),
			cell:    degradeStorm,
		}},
}

// All returns the registered experiments in listing order.
func All() []Experiment { return registry }

// Lookup finds an experiment by name; the error for an unknown name
// lists the known ones.
func Lookup(name string) (Experiment, error) {
	names := make([]string, len(registry))
	for i, e := range registry {
		if e.Name == name {
			return e, nil
		}
		names[i] = e.Name
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(names, "|"))
}

// Usage is the experiment list for help text: one `-exp name` line per
// entry with its summary.
func Usage() string {
	var b strings.Builder
	for _, e := range registry {
		fmt.Fprintf(&b, "  -exp %-14s %s\n", e.Name, e.Summary)
	}
	return b.String()
}

// minStormQueries is the shortest storm whose schedule — ticks every
// sixteenth of the plan, publishes every eighth, degrade's partition
// window over its second quarter — has a step at every stage.
const minStormQueries = 32

// Run executes the experiment: it checks p, fills the experiment's
// defaults into its zero fields, runs every cell, and returns the rows.
// This is the one place Params are checked.
func (e Experiment) Run(p Params) (*Result, error) {
	bad := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("experiments: %s: %s", e.Name, fmt.Sprintf(format, args...))
	}
	// Zero takes the experiment's default; a negative value is a
	// mistake, not a request for it.
	if p.K < 0 {
		return bad("K = %d, must be positive", p.K)
	}
	for _, k := range p.Ks {
		if k <= 0 {
			return bad("Ks entry K = %d, must be positive", k)
		}
	}
	if p.MaxTime < 0 || math.IsNaN(p.MaxTime) || math.IsInf(p.MaxTime, 0) {
		return bad("MaxTime = %v, must be finite and positive", p.MaxTime)
	}
	if p.QPS < 0 {
		return bad("QPS = %d, must not be negative", p.QPS)
	}
	switch e.plan.needs() {
	case storm:
		if p.TopK <= 0 {
			return bad("TopK = %d, must be positive", p.TopK)
		}
		if p.Queries < minStormQueries {
			return bad("Queries = %d, a storm needs at least %d", p.Queries, minStormQueries)
		}
		fallthrough
	case timed:
		if p.Meter.Clock == nil || p.Meter.PeakRSSMB == nil {
			return nil, fmt.Errorf("%w (running %s)", ErrNoMeter, e.Name)
		}
	}
	p.K, p.MaxTime = cmp.Or(p.K, e.K), cmp.Or(p.MaxTime, e.MaxTime)
	if len(p.Ks) == 0 {
		p.Ks = e.Ks
	}
	p.Workload.defaults()
	return e.plan.sweep(p)
}
