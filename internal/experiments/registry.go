package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"p2prank/internal/bwmodel"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

// Experiment is one `dprsim -exp` scenario, declared once in the
// registry below: everything the command prints about it — the usage
// list, the unknown-name error, the caption, the tables — comes from
// here.
type Experiment struct {
	Name    string
	Summary string
	// K and Ks are the defaults for Params.K and Params.Ks (the paper's
	// values); an experiment that reads neither leaves both zero.
	K  int
	Ks []int
	// Caption heads the output; one ending in "K=" gets the ranker
	// count appended.
	Caption string
	// rows runs the experiment and returns what goes under the caption:
	// a slice of `tab`-tagged rows (one table), ready-made tables, or a
	// figure's curves.
	rows func(p Params) (any, error)
}

// Params are an experiment's inputs, one field per dprsim flag.
type Params struct {
	Workload
	// K is the ranker count and Ks the ranker counts of a sweep; zero
	// values take the experiment's defaults.
	K  int
	Ks []int
	// MaxTime is the virtual-time horizon of the figure runs; the
	// convergence sweeps run to ten times it.
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
// analyzer's scope; tests inject a scripted one.
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

// Result is what an experiment produces: a caption, then tables and/or
// curves.
type Result struct {
	Caption string
	Tables  []*metrics.Table
	Curves  []*metrics.Series
}

// WriteText renders the result for a terminal: the caption, each table
// aligned (a titled table after a blank line and its title), curves as
// CSV columns.
func (r *Result) WriteText(w io.Writer) error {
	if r.Caption != "" {
		fmt.Fprintln(w, r.Caption)
	}
	for _, t := range r.Tables {
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
	for i, t := range r.Tables {
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

var registry = []Experiment{
	{Name: "fig6", Summary: "relative error over time (K=1000)", K: 1000,
		Caption: "Figure 6: DPR1 relative error (%) over time, K=",
		rows:    func(p Params) (any, error) { return Fig6(p.Workload, p.K, p.MaxTime) }},
	{Name: "fig7", Summary: "monotone average rank (K=100)", K: 100,
		Caption: "Figure 7: DPR1 average rank over time (monotone), K=",
		rows:    func(p Params) (any, error) { return Fig7(p.Workload, p.K, p.MaxTime) }},
	{Name: "fig8", Summary: "iterations vs ranker count", Ks: []int{2, 10, 100, 1000},
		Caption: "Figure 8: iterations to relative error 0.01% (p=1, T1=T2=15)",
		rows:    func(p Params) (any, error) { return Fig8(p.Workload, p.Ks) }},
	{Name: "transmission", Summary: "direct vs indirect measured traffic", Ks: []int{8, 16, 32, 64},
		Caption: "§4.4: measured per-iteration traffic vs formulas 4.1–4.4",
		rows:    func(p Params) (any, error) { return Transmission(p.Workload, p.Ks, 30) }},
	{Name: "traffic", Summary: "§4.4 per-iteration traffic from telemetry", Ks: []int{8, 16, 32, 64},
		Caption: "§4.4: per-iteration message/data counts from the telemetry seam",
		rows:    func(p Params) (any, error) { return Traffic(p.Workload, p.Ks, 30) }},
	{Name: "bandwidth", Summary: "convergence vs node uplink bandwidth", K: 16,
		Caption: "§4.5 measured: convergence vs per-node uplink bandwidth, K=",
		rows: func(p Params) (any, error) {
			return ConvergenceVsBandwidth(p.Workload, p.K, []float64{0, 100000, 20000, 2000, 200}, p.MaxTime*10)
		}},
	{Name: "cut", Summary: "§4.1 partition comparison", K: 32,
		Caption: "§4.1: partition cut at K=",
		rows:    func(p Params) (any, error) { return PartitionCut(p.Workload, p.K) }},
	{Name: "hops", Summary: "overlay hop counts vs N", Ks: []int{100, 1000, 10000},
		rows: func(p Params) (any, error) {
			var tables []*metrics.Table
			for _, kind := range []engine.OverlayKind{engine.Pastry, engine.Chord} {
				rows, err := OverlayHops(kind, p.Ks, 1000, p.Seed)
				if err != nil {
					return nil, err
				}
				tables = append(tables, metrics.TableOf(rows))
			}
			return tables, nil
		}},
	{Name: "faults", Summary: "convergence under injected message faults", K: 16,
		Caption: "Fault injection: DPR1 convergence under message drops, K=",
		rows:    func(p Params) (any, error) { return Faults(p.Workload, p.K, []float64{0, 0.1, 0.3, 0.5}, p.MaxTime*10) }},
	{Name: "churn", Summary: "convergence with rankers crashing mid-run", K: 16,
		Caption: "Churn: DPR1 convergence with crash/checkpoint-restart rankers, K=",
		rows: func(p Params) (any, error) {
			// Sweep none → half the rankers crashing (0, 2, 4, 8 at the
			// default K=16), scaled to whatever K was given.
			crashes := []int{0}
			for c := p.K / 8; c <= p.K/2 && c > 0; c *= 2 {
				crashes = append(crashes, c)
			}
			return Churn(p.Workload, p.K, crashes, p.MaxTime*10)
		}},
	{Name: "scale", Summary: "DPR1/DPR2 at N = 10³/10⁴/10⁵ with model validation", Ks: []int{1000, 10000, 100000},
		Caption: "Paper scale: DPR under indirect transmission, 20 pages/ranker, batched delivery",
		rows:    scaleSweep},
	{Name: "serve", Summary: "query storm over published rank snapshots", Ks: []int{1000, 10000},
		Caption: "Serving tier: distributed top-k over published rank snapshots, 20 pages/ranker",
		rows: func(p Params) (any, error) {
			var rows []ServeRow
			for i, k := range p.Ks {
				p.logf("serve K=%d queries=%d...", k, p.Queries)
				b, err := NewServeBench(ScaleWorkload(k, p.Seed), k, p.Queries)
				if err != nil {
					return nil, err
				}
				row, err := b.Run(p.Meter.Clock, p.QPS, p.TopK)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
				if i == 0 && p.Meter.Expose != nil {
					if err := p.Meter.Expose(b.fe, p.TopK); err != nil {
						return nil, err
					}
				}
			}
			return rows, nil
		}},
	{Name: "degrade", Summary: "degraded serving under partition/straggler faults", K: 256,
		Caption: "Degraded serving: admission + hedged fan-out under partition/straggler faults",
		rows: func(p Params) (any, error) {
			var rows []DegradeRow
			for _, c := range []struct{ part, strag float64 }{{0, 0}, {0.1, 0}, {0.1, 0.25}, {0.3, 0}, {0.3, 0.25}} {
				p.logf("degrade K=%d queries=%d partition=%.0f%% stragglers=%.0f%%...", p.K, p.Queries, 100*c.part, 100*c.strag)
				b, err := NewDegradeBench(ScaleWorkload(p.K, p.Seed), p.K, p.Queries, c.part, c.strag)
				if err != nil {
					return nil, err
				}
				row, err := b.Run(p.Meter.Clock, p.QPS, p.TopK)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
			return rows, nil
		}},
}

// scaleSweep runs the scale experiment over ranker populations, in
// ascending K so the monotone peak-RSS mark tracks each decade's own
// peak: the headline wall-time/memory/throughput table, then one
// bwmodel-vs-telemetry validation table per run.
func scaleSweep(p Params) (any, error) {
	var rows []*ScaleRow
	for _, k := range p.Ks {
		w, store, cleanup := ScaleWorkload(k, p.Seed), "mem", func() {}
		if p.Meter.OnDisk != nil {
			src, done, err := p.Meter.OnDisk(w)
			if err != nil {
				return nil, err
			}
			w.Source, store, cleanup = src, "disk", done
		}
		for _, alg := range []dprcore.Algorithm{dprcore.DPR1, dprcore.DPR2} {
			p.logf("scale %v K=%d pages=%d store=%s...", alg, k, w.Pages, store)
			start := p.Meter.Clock.Now()
			row, err := ScaleRun(w, k, alg)
			if err != nil {
				cleanup()
				return nil, err
			}
			row.WallSeconds = p.Meter.Clock.Now().Sub(start).Seconds()
			row.PeakRSSMB = p.Meter.PeakRSSMB()
			if row.WallSeconds > 0 {
				row.EventsPerSec = float64(row.Events) / row.WallSeconds
			}
			rows = append(rows, row)
		}
		cleanup()
	}
	tables := []*metrics.Table{metrics.TableOf(rows)}
	for _, r := range rows {
		t := bwmodel.ValidationTable(r.Validation)
		t.Title = fmt.Sprintf("%s K=%d: model vs telemetry", r.Alg, r.K)
		tables = append(tables, t)
	}
	return tables, nil
}

func (p Params) logf(format string, args ...any) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, "dprsim: "+format+"\n", args...)
	}
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

// Run executes the experiment with its defaults filled into p.
func (e Experiment) Run(p Params) (*Result, error) {
	// Zero takes the experiment's K; a negative one is a mistake, not a
	// request for the default.
	if p.K < 0 {
		return nil, fmt.Errorf("experiments: %s: K = %d, must be positive", e.Name, p.K)
	}
	for _, k := range p.Ks {
		if k <= 0 {
			return nil, fmt.Errorf("experiments: %s: Ks entry K = %d, must be positive", e.Name, k)
		}
	}
	if p.K == 0 {
		p.K = e.K
	}
	if len(p.Ks) == 0 {
		p.Ks = e.Ks
	}
	out, err := e.rows(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Caption: e.Caption}
	if strings.HasSuffix(e.Caption, "K=") {
		res.Caption += strconv.Itoa(p.K)
	}
	switch out := out.(type) {
	case *FigureResult:
		res.Caption += "\nworkload: " + strings.TrimSuffix(out.GraphStats.String(), "\n")
		res.Curves = out.Curves
	case []*metrics.Table:
		res.Tables = out
	default:
		res.Tables = []*metrics.Table{metrics.TableOf(out)}
	}
	return res, nil
}
