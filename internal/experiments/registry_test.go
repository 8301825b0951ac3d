package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"p2prank/internal/webgraph"
)

// frozenClock never advances: every wall-clock column renders as zero
// and the rest of a storm's row is deterministic.
type frozenClock struct{}

func (frozenClock) Now() time.Time                            { return time.Time{} }
func (frozenClock) Sleep(time.Duration, <-chan struct{}) bool { return true }

// toyParams is the workload the golden files under testdata/golden were
// captured at, from the pre-registry renderers: the deterministic
// experiments by `dprsim -exp NAME -pages 2000 -sites 15 -seed 3` plus
// the K flags below, the wall-clock ones by the old Render* functions
// over rows whose caller-measured fields were left zero. MaxTime is the
// horizon each golden ran to: 20 for the figures, 400 for the
// convergence sweeps, the experiment's own default for the rest.
func toyParams(name string) Params {
	p := Params{
		Workload: Workload{Pages: 2000, Sites: 15, Seed: 3},
		Queries:  400, TopK: 5,
		Meter: Meter{Clock: frozenClock{}, PeakRSSMB: func() float64 { return 0 }},
	}
	switch name {
	case "fig6", "fig7":
		p.K, p.MaxTime = 6, 20
	case "bandwidth", "faults", "churn":
		p.K, p.MaxTime = 8, 400
	case "cut":
		p.K = 8
	case "fig8":
		p.Ks = []int{2, 8}
	case "transmission", "traffic":
		p.Ks = []int{8, 16}
	case "hops":
		p.Ks = []int{50, 200}
	case "scale":
		p.Ks = []int{50, 100}
	case "serve":
		p.Ks = []int{16, 32}
	case "degrade":
		p.K = 32
	}
	return p
}

// TestEveryExperiment runs each registered experiment at toy scale: its
// text must match the golden captured before the registry existed, and
// its tables must be well-formed and survive a CSV round trip. A new
// registry entry is covered by adding its golden file.
func TestEveryExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] || e.Name == "" || e.Summary == "" {
			t.Fatalf("experiment %q: duplicate name or missing name/summary", e.Name)
		}
		if (e.K == 0) == (len(e.Ks) == 0) {
			t.Fatalf("experiment %q: sets K = %d and Ks = %v, want exactly one", e.Name, e.K, e.Ks)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(toyParams(e.Name))
			if err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			if err := res.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if text.String() != string(want) {
				t.Errorf("text differs from golden:\n--- got\n%s--- want\n%s", text.String(), want)
			}
			if len(res.tables())+len(res.Curves) == 0 {
				t.Fatal("no tables and no curves")
			}
			for _, tab := range res.tables() {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("row %q has %d cells for %d columns", row, len(row), len(tab.Header))
					}
				}
				var buf bytes.Buffer
				if err := tab.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := csv.NewReader(&buf).ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(back[0], tab.Header) || !reflect.DeepEqual(back[1:], tab.Rows) {
					t.Errorf("CSV round trip changed the cells:\n%q", back)
				}
			}
			var all bytes.Buffer
			if err := res.WriteCSV(&all); err != nil {
				t.Fatal(err)
			}
			if all.Len() == 0 {
				t.Error("empty CSV")
			}
		})
	}
}

func TestLookupAndUsage(t *testing.T) {
	for _, e := range All() {
		got, err := Lookup(e.Name)
		if err != nil || got.Name != e.Name {
			t.Fatalf("Lookup(%q) = %q, %v", e.Name, got.Name, err)
		}
		if !strings.Contains(Usage(), "-exp "+e.Name+" ") {
			t.Errorf("Usage omits %q", e.Name)
		}
	}
	_, err := Lookup("nonsense")
	if err == nil || !strings.Contains(err.Error(), All()[0].Name+"|") {
		t.Fatalf("unknown name error does not list the registry: %v", err)
	}
}

// The scale sweep ranks what Meter.OnDisk hands it and releases it.
func TestScaleSweepUsesOnDisk(t *testing.T) {
	p := toyParams("scale")
	p.Ks = []int{20}
	var opened, closed int
	p.Meter.OnDisk = func(w Workload) (*webgraph.Graph, func(), error) {
		opened++
		g, err := w.Generate()
		return g, func() { closed++ }, err
	}
	e, _ := Lookup("scale")
	if _, err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if opened != 1 || closed != 1 {
		t.Fatalf("OnDisk opened %d, released %d; want 1 and 1", opened, closed)
	}
}
