package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"p2prank/internal/partition"
	"p2prank/internal/webgraph"
)

// Small workload for fast tests; the real presets default bigger.
func smallWorkload() Workload { return Workload{Pages: 3000, Sites: 20, Seed: 1} }

// run runs the named experiment, failing the test on any error.
func run(t *testing.T, name string, p Params) *Result {
	t.Helper()
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// text is the result as the terminal would show it.
func text(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestFig6Shape(t *testing.T) {
	res := run(t, "fig6", Params{Workload: smallWorkload(), K: 16, MaxTime: 60})
	if len(res.Curves) != 3 {
		t.Fatalf("%d curves, want 3 (A, B, C)", len(res.Curves))
	}
	for _, c := range res.Curves {
		if c.Len() < 10 {
			t.Fatalf("curve %q has %d points", c.Name, c.Len())
		}
		first, last := c.Values[0], c.Last()
		if last >= first {
			t.Fatalf("curve %q relative error did not decrease: %v -> %v", c.Name, first, last)
		}
	}
	// Loss (curve B) must converge more slowly than lossless (curve A).
	a, b := res.Curves[0], res.Curves[1]
	if b.Last() < a.Last()*0.2 {
		t.Fatalf("lossy curve B (%v) ended far below lossless A (%v)", b.Last(), a.Last())
	}
}

func TestFig7Shape(t *testing.T) {
	res := run(t, "fig7", Params{Workload: smallWorkload(), K: 8, MaxTime: 80})
	for _, c := range res.Curves {
		// Monotone non-decreasing average rank (Theorem 4.1).
		for i := 1; i < c.Len(); i++ {
			if c.Values[i] < c.Values[i-1]-1e-12 {
				t.Fatalf("curve %q decreased at point %d", c.Name, i)
			}
		}
	}
	// Lossless curve reaches the leaky plateau.
	final := res.Curves[0].Last()
	if final < 0.15 || final > 0.45 {
		t.Fatalf("converged average rank %v, want ≈0.3", final)
	}
}

func TestFig8ShapeAndOrdering(t *testing.T) {
	res := run(t, "fig8", Params{Workload: Workload{Pages: 2500, Sites: 20, Seed: 23}, Ks: []int{2, 8}})
	rows := res.Rows.([]Fig8Row)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.DPR1 >= r.CPR {
			t.Errorf("K=%d: DPR1 %.1f not below CPR %.0f", r.K, r.DPR1, r.CPR)
		}
		if r.DPR2 <= r.DPR1 {
			t.Errorf("K=%d: DPR2 %.1f not above DPR1 %.1f", r.K, r.DPR2, r.DPR1)
		}
	}
	if out := text(t, res); !strings.Contains(out, "DPR1") || !strings.Contains(out, "CPR") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestTransmissionModelAgreement(t *testing.T) {
	res := run(t, "transmission", Params{Workload: Workload{Pages: 3000, Sites: 30, Seed: 3}, Ks: []int{24}, MaxTime: 30})
	r := res.Rows.([]TransmissionRow)[0]
	if r.IndirectMsgs >= r.DirectMsgs {
		t.Fatalf("indirect %.0f msgs/iter not below direct %.0f at K=24", r.IndirectMsgs, r.DirectMsgs)
	}
	// Measured counts should be the same order of magnitude as the
	// model (the model assumes all pairs talk every iteration; the
	// measurement reflects the actual efferent topology).
	if r.ModelIndirectMsgs <= 0 || r.ModelDirectMsgs <= 0 {
		t.Fatal("model produced non-positive predictions")
	}
	if r.IndirectMsgs > r.ModelIndirectMsgs*20 {
		t.Fatalf("indirect measurement %.0f wildly above model %.0f", r.IndirectMsgs, r.ModelIndirectMsgs)
	}
	if out := text(t, res); !strings.Contains(out, "model S_it") {
		t.Fatalf("render missing model column:\n%s", out)
	}
}

func TestPartitionCutOrdering(t *testing.T) {
	res := run(t, "cut", Params{Workload: Workload{Pages: 8000, Sites: 50, Seed: 5}, K: 16})
	rows := res.Rows.([]CutRow)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	var bySite, byPage, random float64
	for _, r := range rows {
		switch r.Strategy {
		case partition.BySite:
			bySite = r.CutFrac
		case partition.ByPage:
			byPage = r.CutFrac
		case partition.Random:
			random = r.CutFrac
		}
	}
	if bySite >= byPage || bySite >= random {
		t.Fatalf("by-site cut %.3f not smallest (by-page %.3f, random %.3f)", bySite, byPage, random)
	}
	if out := text(t, res); !strings.Contains(out, "by-site") {
		t.Fatalf("render missing strategy:\n%s", out)
	}
}

func TestOverlayHops(t *testing.T) {
	rows := run(t, "hops", Params{Ks: []int{50, 400}}).Rows.([]HopsRow)
	if len(rows) != 2 || rows[0].N != 50 || rows[1].N != 400 {
		t.Fatalf("rows %+v, want one Pastry row per population", rows)
	}
	if rows[1].Hops <= rows[0].Hops {
		t.Fatalf("hops did not grow with N: %+v", rows)
	}
}

// Seed 0 is the documented default seed 1 for every experiment, hops
// included.
func TestHopsSeedDefault(t *testing.T) {
	zero := text(t, run(t, "hops", Params{Ks: []int{50}}))
	one := text(t, run(t, "hops", Params{Workload: Workload{Seed: 1}, Ks: []int{50}}))
	if zero != one {
		t.Fatalf("seed 0 and seed 1 differ:\n%s\n%s", zero, one)
	}
}

// TestValidation: Run refuses a bad Params up front, with an error that
// names the field, before it builds anything.
func TestValidation(t *testing.T) {
	storming := func(p Params) Params {
		if p.Queries == 0 {
			p.Queries = 400
		}
		if p.TopK == 0 {
			p.TopK = 5
		}
		p.Meter = toyParams("serve").Meter
		return p
	}
	for _, c := range []struct {
		exp  string
		p    Params
		want string
	}{
		{"cut", Params{K: -3}, "K = -3"},
		{"fig6", Params{K: -1}, "K = -1"},
		{"hops", Params{Ks: []int{-5}}, "K = -5"},
		{"fig8", Params{Ks: []int{8, 0}}, "K = 0"},
		{"fig7", Params{Ks: []int{5}}, "set K instead"},
		{"fig8", Params{K: 5}, "set Ks instead"},
		{"hops", Params{K: 7}, "set Ks instead"},
		{"fig7", Params{MaxTime: -1}, "MaxTime"},
		{"fig7", Params{MaxTime: math.NaN()}, "MaxTime"},
		{"bandwidth", Params{MaxTime: math.Inf(1)}, "MaxTime"},
		{"churn", Params{MaxTime: math.Inf(-1)}, "MaxTime"},
		{"serve", storming(Params{TopK: -1}), "TopK"},
		{"degrade", storming(Params{TopK: -2}), "TopK"},
		{"serve", Params{Queries: 400, Meter: storming(Params{}).Meter}, "TopK"},
		{"serve", storming(Params{QPS: -5}), "QPS"},
		{"fig8", Params{QPS: -5}, "QPS"},
		{"serve", storming(Params{Queries: -1}), "Queries"},
		{"degrade", storming(Params{Queries: 16}), "Queries"},
	} {
		e, err := Lookup(c.exp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(c.p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: error %v, want one naming %q", c.exp, c.p, err, c.want)
		}
	}
}

// The churn sweep refuses bad parameters through Run, and the crash
// counts it derives from K always start at zero and stay below K, so
// some ranker is up throughout every run.
func TestChurnValidation(t *testing.T) {
	e, err := Lookup("churn")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{K: -4}, {MaxTime: -10}, {MaxTime: math.NaN()}} {
		if _, err := e.Run(p); err == nil {
			t.Errorf("churn %+v accepted", p)
		}
	}
	cells := e.plan.(plan[int, ChurnRow]).cells
	for k := 1; k <= 64; k++ {
		crashes := cells(Params{K: k})
		if len(crashes) == 0 || crashes[0] != 0 {
			t.Errorf("K=%d: crash counts %v, want a zero-crash baseline first", k, crashes)
		}
		for _, c := range crashes {
			if c < 0 || c >= k {
				t.Errorf("K=%d: crash count %d out of [0, K)", k, c)
			}
		}
	}
}

// The bandwidth sweep refuses bad parameters through Run, and its
// declared bandwidths are non-empty, non-negative and include the
// unlimited (0) baseline.
func TestConvergenceVsBandwidthValidation(t *testing.T) {
	e, err := Lookup("bandwidth")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{K: -4}, {MaxTime: -10}, {MaxTime: math.Inf(1)}} {
		if _, err := e.Run(p); err == nil {
			t.Errorf("bandwidth %+v accepted", p)
		}
	}
	bws := e.plan.(plan[float64, BandwidthRow]).cells(Params{})
	if len(bws) == 0 || bws[0] != 0 {
		t.Fatalf("bandwidths %v, want the unlimited baseline first", bws)
	}
	for _, bw := range bws {
		if bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
			t.Errorf("declared bandwidth %v, want finite and non-negative", bw)
		}
	}
}

// A wall-clock experiment with no Meter is refused with ErrNoMeter,
// not a nil-clock panic.
func TestTimedExperimentsNeedMeter(t *testing.T) {
	for _, name := range []string{"scale", "serve", "degrade"} {
		e, _ := Lookup(name)
		// A toy ranker count in the field the experiment takes, so a
		// missed refusal runs small.
		p := Params{Queries: 400, TopK: 5}
		if e.K != 0 {
			p.K = 16
		} else {
			p.Ks = []int{16}
		}
		if _, err := e.Run(p); !errors.Is(err, ErrNoMeter) {
			t.Errorf("%s without a Meter: error %v, want ErrNoMeter", name, err)
		}
		p.Meter.Clock = frozenClock{}
		if _, err := e.Run(p); !errors.Is(err, ErrNoMeter) {
			t.Errorf("%s without PeakRSSMB: error %v, want ErrNoMeter", name, err)
		}
	}
}

func TestWorkloadDefaults(t *testing.T) {
	var w Workload
	g, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != 20000 || g.NumSites() != 100 {
		t.Fatalf("default workload: %d pages, %d sites", g.NumPages(), g.NumSites())
	}
	// Under 100 pages the default is the generator's own site count, as
	// the K < 5 scale crawls use.
	g, err = ScaleWorkload(3, 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if want := webgraph.DefaultGenConfig(60).Sites; g.NumPages() != 60 || g.NumSites() != want {
		t.Fatalf("ScaleWorkload(3): %d pages, %d sites; want 60 and %d", g.NumPages(), g.NumSites(), want)
	}
}

// An explicit site count above the page count is refused by name, not
// replaced by the default.
func TestWorkloadRefusesMoreSitesThanPages(t *testing.T) {
	g, err := Workload{Pages: 200, Sites: 300}.Generate()
	if err == nil || !strings.Contains(err.Error(), "300") || !strings.Contains(err.Error(), "200") {
		t.Fatalf("Workload{Pages: 200, Sites: 300}.Generate() = %v, %v; want an error naming both", g, err)
	}
}

// Bandwidth starvation delays convergence — the measured form of the
// §4.5 constraint.
func TestConvergenceVsBandwidth(t *testing.T) {
	res := run(t, "bandwidth", Params{Workload: Workload{Pages: 4000, Sites: 30, Seed: 7}, K: 12, MaxTime: 600})
	rows := res.Rows.([]BandwidthRow)
	unlimited, ample, tight, starved := rows[0], rows[1], rows[3], rows[4]
	if unlimited.Bandwidth != 0 || tight.Bandwidth != 2000 || starved.Bandwidth != 200 {
		t.Fatalf("declared bandwidths moved: %+v", rows)
	}
	if unlimited.ConvergedAt < 0 || ample.ConvergedAt < 0 {
		t.Fatalf("well-provisioned runs did not converge: %+v", rows)
	}
	if ample.ConvergedAt < unlimited.ConvergedAt {
		t.Fatalf("finite bandwidth converged before unlimited: %+v", rows)
	}
	// Shrinking the uplink monotonically worsens the error reached by
	// the horizon — the measured form of constraint 4.7.
	if tight.FinalRelErr <= ample.FinalRelErr {
		t.Fatalf("tight uplink not worse than ample: %+v", rows)
	}
	if starved.FinalRelErr <= tight.FinalRelErr {
		t.Fatalf("starved uplink not worse than tight: %+v", rows)
	}
	if out := text(t, res); !strings.Contains(out, "unlimited") {
		t.Fatalf("render missing unlimited row:\n%s", out)
	}
}

// Churn sweep: the zero-crash row converges cleanly, churned rows
// still converge and their counters show the recovery machinery ran.
func TestChurnSweep(t *testing.T) {
	res := run(t, "churn", Params{Workload: smallWorkload(), K: 8, MaxTime: 600})
	rows := res.Rows.([]ChurnRow)
	calm, churned := rows[0], rows[2]
	if calm.Crashes != 0 || churned.Crashes != 2 {
		t.Fatalf("crash counts %d and %d, want 0 and 2: %+v", calm.Crashes, churned.Crashes, rows)
	}
	if calm.ConvergedAt < 0 || churned.ConvergedAt < 0 {
		t.Fatalf("runs did not converge: %+v", rows)
	}
	if calm.Recoveries != 0 || churned.Recoveries != 2 {
		t.Fatalf("recoveries = %d and %d, want 0 and 2", calm.Recoveries, churned.Recoveries)
	}
	if churned.Retries == 0 || churned.Acks == 0 {
		t.Fatalf("churned row never exercised the reliable layer: %+v", churned)
	}
	if out := text(t, res); !strings.Contains(out, "recoveries") {
		t.Fatalf("render missing recoveries column:\n%s", out)
	}
}
