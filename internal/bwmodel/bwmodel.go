// Package bwmodel implements the analytic communication-cost model of
// §4.4–4.5: the per-iteration data volumes and message counts of direct
// and indirect transmission (formulas 4.1–4.4), the bisection- and
// bottleneck-bandwidth constraints (formulas 4.6–4.7), and the Table 1
// generator relating ranker population to the minimal iteration
// interval.
package bwmodel

import (
	"fmt"
	"math"

	"p2prank/internal/metrics"
)

// Params are the model inputs, in the paper's notation.
type Params struct {
	// W is the number of web pages being ranked.
	W float64
	// N is the number of page rankers.
	N float64
	// H is the average overlay lookup hop count.
	H float64
	// L is l: bytes per transmitted link record (<url_from, url_to,
	// score> ≈ 100 B given 40-byte URLs).
	L float64
	// R is r: bytes per lookup message.
	R float64
	// G is g: average overlay neighbors per node.
	G float64
	// BisectionBps is the usable Internet bisection bandwidth in
	// bytes/second (the paper budgets 1% of 100 Gb/s ⇒ 100 MB/s).
	BisectionBps float64
}

// DefaultParams returns the §4.5 worked example: 3 billion pages,
// l = 100 B, r = 48 B, g = 32, and a 100 MB/s bisection budget. H and N
// must still be set (use PastryHops).
func DefaultParams() Params {
	return Params{
		W:            3e9,
		L:            100,
		R:            48,
		G:            32,
		BisectionBps: 100e6,
	}
}

// Validate checks the parameters a computation needs are positive.
func (p Params) Validate() error {
	if p.W <= 0 || p.N <= 0 || p.H <= 0 || p.L <= 0 {
		return fmt.Errorf("bwmodel: W, N, H, L must be positive: %+v", p)
	}
	if p.R < 0 || p.G < 0 || p.BisectionBps < 0 {
		return fmt.Errorf("bwmodel: negative R, G, or bandwidth: %+v", p)
	}
	return nil
}

// IndirectDataBytes is formula 4.1: D_it = h·l·W. Every link record
// crosses h overlay hops.
func (p Params) IndirectDataBytes() float64 { return p.H * p.L * p.W }

// DirectDataBytes is formula 4.2: D_dt = l·W + h·r·N². Payload moves
// once, but every ranker pair pays an h-hop lookup first.
func (p Params) DirectDataBytes() float64 { return p.L*p.W + p.H*p.R*p.N*p.N }

// IndirectMessages is formula 4.3: S_it = g·N. Each node talks only to
// its neighbors.
func (p Params) IndirectMessages() float64 { return p.G * p.N }

// DirectMessages is formula 4.4: S_dt = (h+1)·N². Each pair pays h
// lookup messages plus the data message.
func (p Params) DirectMessages() float64 { return (p.H + 1) * p.N * p.N }

// MinIterationInterval is constraint 4.6 solved for T: the smallest
// iteration period keeping indirect transmission inside the bisection
// budget, T > D_it / budget.
func (p Params) MinIterationInterval() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.BisectionBps == 0 {
		return 0, fmt.Errorf("bwmodel: zero bisection bandwidth")
	}
	return p.IndirectDataBytes() / p.BisectionBps, nil
}

// MinBottleneckBandwidth is constraint 4.7 solved for B: the per-node
// access bandwidth needed to sustain iteration interval t, B ≥ D_it/(N·t).
func (p Params) MinBottleneckBandwidth(t float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if t <= 0 {
		return 0, fmt.Errorf("bwmodel: non-positive interval %v", t)
	}
	return p.IndirectDataBytes() / (p.N * t), nil
}

// MessageCrossoverN returns the ranker population above which indirect
// transmission sends fewer messages than direct: gN < (h+1)N² ⇔
// N > g/(h+1).
func (p Params) MessageCrossoverN() float64 {
	if p.H+1 == 0 {
		return math.Inf(1)
	}
	return p.G / (p.H + 1)
}

// PastryHops returns the average Pastry (b=4) lookup hop count for n
// nodes. The paper quotes measured values 2.5/3.5/4.0 at 10³/10⁴/10⁵;
// those exact points are returned verbatim and other populations use
// the log₁₆ model that generates them.
func PastryHops(n float64) float64 {
	switch n {
	case 1e3:
		return 2.5
	case 1e4:
		return 3.5
	case 1e5:
		return 4.0
	}
	if n <= 1 {
		return 0
	}
	return math.Log(n) / math.Log(16)
}

// ValidationRow pairs one model quantity with its measured value — the
// empirical check of §4.4–4.5 that the paper itself never ran. Rows are
// produced per ranker population by ValidateIndirect and tabulated by
// ValidationTable.
type ValidationRow struct {
	// Quantity names the model quantity (with its formula).
	Quantity string
	// Predicted is the analytic value.
	Predicted float64
	// Measured is the telemetry-side observation.
	Measured float64
}

// Ratio is Measured/Predicted (NaN when the prediction is zero).
func (r ValidationRow) Ratio() float64 {
	if r.Predicted == 0 {
		return math.NaN()
	}
	return r.Measured / r.Predicted
}

// IndirectObserved holds the telemetry measurements of one indirect-
// transmission run that the model's formulas predict.
type IndirectObserved struct {
	// Hops is the measured mean overlay route length per chunk.
	Hops float64
	// MsgsPerIter is the on-wire data-message count per iteration
	// (hop-by-hop packages, including relays).
	MsgsPerIter float64
	// SeamBytesPerIter is the payload volume emitted per iteration at
	// the dprcore sender seam — the l·W of formula 4.1, counted once
	// per chunk before it starts hopping.
	SeamBytesPerIter float64
	// WireBytesPerIter is the on-wire payload volume per iteration,
	// counting every hop a chunk crosses.
	WireBytesPerIter float64
	// IterInterval is the measured mean virtual time between loop
	// iterations (the paper's T).
	IterInterval float64
	// NodeSendRate is the measured mean per-node upstream usage in
	// bytes per virtual time unit.
	NodeSendRate float64
}

// ValidateIndirect compares the indirect-transmission formulas against
// one run's measurements. p supplies the analytic inputs: N and G as
// configured/measured, H as the model's hop prediction (PastryHops).
// Four checks come back:
//
//   - h: the predicted lookup hop count vs the measured route length.
//   - S_it = g·N (4.3): the neighbor-link message budget vs messages
//     actually sent. Measured counts hop-by-hop packages, so relayed
//     chunks can push it above the budget by up to a factor of h; it
//     lands below when not every neighbor link carries traffic in an
//     iteration.
//   - D_it = h·l·W (4.1): the claim that shipping l·W payload bytes
//     over an h-hop overlay costs h·(l·W) on the wire, with the
//     measured h and seam volume plugged in.
//   - B = D_it/(N·T) (4.7): the bottleneck per-node bandwidth the
//     measured traffic implies vs measured per-node upstream usage.
func ValidateIndirect(p Params, o IndirectObserved) []ValidationRow {
	return []ValidationRow{
		{Quantity: "h (lookup hops)", Predicted: p.H, Measured: o.Hops},
		{Quantity: "S_it = g·N (msgs/iter)", Predicted: p.IndirectMessages(), Measured: o.MsgsPerIter},
		{Quantity: "D_it = h·l·W (bytes/iter)", Predicted: o.Hops * o.SeamBytesPerIter, Measured: o.WireBytesPerIter},
		{Quantity: "B = D_it/(N·T) (B/node/unit)", Predicted: o.Hops * o.SeamBytesPerIter / (p.N * o.IterInterval), Measured: o.NodeSendRate},
	}
}

// ValidationTable tabulates one population's validation rows.
func ValidationTable(rows []ValidationRow) *metrics.Table {
	t := metrics.NewTable("quantity", "predicted", "measured", "measured/predicted")
	for _, r := range rows {
		t.AddRow(r.Quantity,
			fmt.Sprintf("%.4g", r.Predicted),
			fmt.Sprintf("%.4g", r.Measured),
			fmt.Sprintf("%.2f", r.Ratio()))
	}
	return t
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	N                float64
	Hops             float64
	IterationSeconds float64
	BottleneckBps    float64
}

// Table1 evaluates the model at the paper's three ranker populations
// (10³, 10⁴, 10⁵) with its default parameters: the minimal time between
// iterations and the per-node bottleneck bandwidth that implies.
func Table1() ([]Table1Row, error) {
	return Table1For(DefaultParams(), []float64{1e3, 1e4, 1e5})
}

// Table1For evaluates the model at arbitrary ranker populations.
func Table1For(base Params, ns []float64) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(ns))
	for _, n := range ns {
		p := base
		p.N = n
		p.H = PastryHops(n)
		t, err := p.MinIterationInterval()
		if err != nil {
			return nil, err
		}
		b, err := p.MinBottleneckBandwidth(t)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{N: n, Hops: p.H, IterationSeconds: t, BottleneckBps: b})
	}
	return rows, nil
}

// RenderTable1 formats rows like the paper's Table 1.
func RenderTable1(rows []Table1Row) string {
	t := metrics.NewTable("# of Page Rankers", "Avg Hops", "Time per Iteration", "Bottleneck Bandwidth Needed")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f", r.N),
			fmt.Sprintf("%.1f", r.Hops),
			fmt.Sprintf("%.0fs", r.IterationSeconds),
			formatBps(r.BottleneckBps),
		)
	}
	return t.String()
}

func formatBps(b float64) string {
	switch {
	case b >= 1e6:
		return fmt.Sprintf("%.0fMB/s", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.0fKB/s", b/1e3)
	}
	return fmt.Sprintf("%.0fB/s", b)
}
