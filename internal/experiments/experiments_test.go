package experiments

import (
	"strings"
	"testing"

	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/partition"
)

// Small workload for fast tests; the real presets default bigger.
func smallWorkload() Workload { return Workload{Pages: 3000, Sites: 20, Seed: 1} }

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(smallWorkload(), 16, 60)
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Fig7(smallWorkload(), 8, 80)
	if err != nil {
		t.Fatal(err)
	}
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
	rows, err := Fig8(Workload{Pages: 2500, Sites: 20, Seed: 23}, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
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
	out := metrics.TableOf(rows).String()
	if !strings.Contains(out, "DPR1") || !strings.Contains(out, "CPR") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestTransmissionModelAgreement(t *testing.T) {
	rows, err := Transmission(Workload{Pages: 3000, Sites: 30, Seed: 3}, []int{24}, 30)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
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
	out := metrics.TableOf(rows).String()
	if !strings.Contains(out, "model S_it") {
		t.Fatalf("render missing model column:\n%s", out)
	}
}

func TestPartitionCutOrdering(t *testing.T) {
	rows, err := PartitionCut(Workload{Pages: 8000, Sites: 50, Seed: 5}, 16)
	if err != nil {
		t.Fatal(err)
	}
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
	out := metrics.TableOf(rows).String()
	if !strings.Contains(out, "by-site") {
		t.Fatalf("render missing strategy:\n%s", out)
	}
}

func TestOverlayHops(t *testing.T) {
	rows, err := OverlayHops(engine.Pastry, []int{50, 400}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Hops <= rows[0].Hops {
		t.Fatalf("hops did not grow with N: %+v", rows)
	}
}

func TestValidation(t *testing.T) {
	w := smallWorkload()
	if _, err := Fig6(w, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Fig6(w, 4, 0); err == nil {
		t.Error("maxTime=0 accepted")
	}
	if _, err := Fig8(w, nil); err == nil {
		t.Error("empty ks accepted")
	}
	if _, err := Fig8(w, []int{-1}); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := Transmission(w, nil, 5); err == nil {
		t.Error("empty ks accepted")
	}
	if _, err := Transmission(w, []int{4}, 0); err == nil {
		t.Error("zero time accepted")
	}
	if _, err := PartitionCut(w, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := OverlayHops(engine.Pastry, []int{10}, 0, 1); err == nil {
		t.Error("zero samples accepted")
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
}

// Bandwidth starvation delays convergence — the measured form of the
// §4.5 constraint.
func TestConvergenceVsBandwidth(t *testing.T) {
	rows, err := ConvergenceVsBandwidth(Workload{Pages: 4000, Sites: 30, Seed: 7}, 12,
		[]float64{0, 50000, 2000, 200}, 600)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, ample, tight, starved := rows[0], rows[1], rows[2], rows[3]
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
	out := metrics.TableOf(rows).String()
	if !strings.Contains(out, "unlimited") {
		t.Fatalf("render missing unlimited row:\n%s", out)
	}
}

// Churn sweep: the zero-crash row converges cleanly, churned rows
// still converge and their counters show the recovery machinery ran.
func TestChurnSweep(t *testing.T) {
	rows, err := Churn(smallWorkload(), 8, []int{0, 2}, 600)
	if err != nil {
		t.Fatal(err)
	}
	calm, churned := rows[0], rows[1]
	if calm.ConvergedAt < 0 || churned.ConvergedAt < 0 {
		t.Fatalf("runs did not converge: %+v", rows)
	}
	if calm.Recoveries != 0 || churned.Recoveries != 2 {
		t.Fatalf("recoveries = %d and %d, want 0 and 2", calm.Recoveries, churned.Recoveries)
	}
	if churned.Retries == 0 || churned.Acks == 0 {
		t.Fatalf("churned row never exercised the reliable layer: %+v", churned)
	}
	out := metrics.TableOf(rows).String()
	if !strings.Contains(out, "recoveries") {
		t.Fatalf("render missing recoveries column:\n%s", out)
	}
}

func TestChurnValidation(t *testing.T) {
	w := smallWorkload()
	if _, err := Churn(w, 0, []int{0}, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Churn(w, 4, nil, 10); err == nil {
		t.Error("empty crash list accepted")
	}
	if _, err := Churn(w, 4, []int{4}, 10); err == nil {
		t.Error("crashes >= k accepted")
	}
}

func TestConvergenceVsBandwidthValidation(t *testing.T) {
	w := smallWorkload()
	if _, err := ConvergenceVsBandwidth(w, 0, []float64{0}, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ConvergenceVsBandwidth(w, 4, nil, 10); err == nil {
		t.Error("empty bandwidth list accepted")
	}
	if _, err := ConvergenceVsBandwidth(w, 4, []float64{-1}, 10); err == nil {
		t.Error("negative bandwidth accepted")
	}
}
