package benchgate_test

import (
	"bufio"
	"strings"
	"testing"

	"p2prank/internal/benchgate"
)

const sample = `goos: linux
goarch: amd64
pkg: p2prank/internal/vecmath
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMulVec-8   	    2730	    402439 ns/op	     112 B/op	       2 allocs/op
BenchmarkCSRMulVec-8	    7650	    165958 ns/op	     112 B/op	       2 allocs/op
PASS
ok  	p2prank/internal/vecmath	3.1s
pkg: p2prank/internal/dprcore
BenchmarkReliableSend-8 	16568035	        69.42 ns/op	       0 B/op	       0 allocs/op
`

func parseSample(t *testing.T) *benchgate.Report {
	t.Helper()
	rep, err := benchgate.Parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseHeaderAndResults(t *testing.T) {
	rep := parseSample(t)
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("header = %q/%q", rep.Goos, rep.Goarch)
	}
	if len(rep.Pkgs) != 2 {
		t.Fatalf("pkgs = %v", rep.Pkgs)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkMulVec" || r.Procs != 8 || r.Iterations != 2730 ||
		r.NsPerOp != 402439 || r.BytesPerOp != 112 || r.AllocsPerOp != 2 {
		t.Fatalf("first result = %+v", r)
	}
	if z := rep.Results[2]; z.AllocsPerOp != 0 || z.NsPerOp != 69.42 {
		t.Fatalf("zero-alloc result = %+v", z)
	}
}

func TestSortOrdersByNameThenProcs(t *testing.T) {
	rep := &benchgate.Report{Results: []benchgate.Result{
		{Name: "BenchmarkB", Procs: 8},
		{Name: "BenchmarkA", Procs: 8},
		{Name: "BenchmarkB", Procs: 1},
	}}
	rep.Sort()
	want := []string{"BenchmarkA-8", "BenchmarkB-1", "BenchmarkB-8"}
	for i, r := range rep.Results {
		if r.Key() != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, r.Key(), want[i])
		}
	}
}

func TestByKeyIndexesResults(t *testing.T) {
	rep := parseSample(t)
	byKey := rep.ByKey()
	if r, ok := byKey["BenchmarkReliableSend-8"]; !ok || r.NsPerOp != 69.42 {
		t.Fatalf("ByKey lookup = %+v, %v", r, ok)
	}
}

func TestParseBenchRejectsShortLines(t *testing.T) {
	if _, err := benchgate.ParseBench("BenchmarkX 12"); err == nil {
		t.Fatal("short line accepted")
	}
}

func report(results ...benchgate.Result) *benchgate.Report {
	return &benchgate.Report{Results: results}
}

func kernel(name string, ns float64, allocs int64) benchgate.Result {
	return benchgate.Result{Name: name, Procs: 8, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestIdenticalRunPasses(t *testing.T) {
	base := report(kernel("BenchmarkMulVec", 100, 2), kernel("BenchmarkSend", 50, 0))
	if got := benchgate.Compare(base, base); len(got) != 0 {
		t.Fatalf("violations on identical run: %v", got)
	}
}

// TestInjectedAllocRegressionFails is the gate's own proof: a synthetic
// +1 allocs/op on a zero-alloc kernel must fail.
func TestInjectedAllocRegressionFails(t *testing.T) {
	base := report(kernel("BenchmarkReliableSend", 70, 0))
	cur := report(kernel("BenchmarkReliableSend", 70, 1))
	got := benchgate.Compare(base, cur)
	if len(got) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(got), got)
	}
	if got[0].Kind != benchgate.KindAlloc || got[0].Name != "BenchmarkReliableSend" {
		t.Fatalf("wrong violation: %+v", got[0])
	}
}

func TestAllocSlackAbsorbsMacroJitter(t *testing.T) {
	base := report(kernel("BenchmarkTransmissionScaling", 1e8, 94785))
	// ±a few counts of amortized jitter passes…
	cur := report(kernel("BenchmarkTransmissionScaling", 1e8, 94786))
	if got := benchgate.Compare(base, cur); len(got) != 0 {
		t.Fatalf("jitter within slack flagged: %v", got)
	}
	// …a real leak (≥0.1%) does not.
	cur = report(kernel("BenchmarkTransmissionScaling", 1e8, 96000))
	got := benchgate.Compare(base, cur)
	if len(got) != 1 || got[0].Kind != benchgate.KindAlloc {
		t.Fatalf("real alloc growth not flagged: %v", got)
	}
}

// Times are recorded, not gated: end-to-end time belongs to the repo
// benchmark's bounds.
func TestSlowerRunIsNotAViolation(t *testing.T) {
	base := report(kernel("BenchmarkMulVec", 100, 2))
	cur := report(kernel("BenchmarkMulVec", 300, 2))
	if got := benchgate.Compare(base, cur); len(got) != 0 {
		t.Fatalf("time growth flagged: %v", got)
	}
}

func TestMissingKernelFails(t *testing.T) {
	base := report(kernel("BenchmarkMulVec", 100, 2), kernel("BenchmarkGone", 10, 0))
	cur := report(kernel("BenchmarkMulVec", 100, 2))
	got := benchgate.Compare(base, cur)
	if len(got) != 1 || got[0].Kind != benchgate.KindMissing || got[0].Name != "BenchmarkGone" {
		t.Fatalf("missing kernel not flagged: %v", got)
	}
}

func TestNewKernelIsNotAViolation(t *testing.T) {
	base := report(kernel("BenchmarkMulVec", 100, 2))
	cur := report(kernel("BenchmarkMulVec", 100, 2), kernel("BenchmarkNew", 5, 3))
	if got := benchgate.Compare(base, cur); len(got) != 0 {
		t.Fatalf("new benchmark flagged: %v", got)
	}
}

func TestProcsAreComparedSeparately(t *testing.T) {
	base := report(
		benchgate.Result{Name: "BenchmarkStep", Procs: 1, NsPerOp: 100, AllocsPerOp: 0},
		benchgate.Result{Name: "BenchmarkStep", Procs: 8, NsPerOp: 20, AllocsPerOp: 0},
	)
	cur := report(
		benchgate.Result{Name: "BenchmarkStep", Procs: 1, NsPerOp: 100, AllocsPerOp: 0},
		benchgate.Result{Name: "BenchmarkStep", Procs: 8, NsPerOp: 20, AllocsPerOp: 2},
	)
	got := benchgate.Compare(base, cur)
	if len(got) != 1 || got[0].Procs != 8 || got[0].Kind != benchgate.KindAlloc {
		t.Fatalf("per-procs comparison wrong: %v", got)
	}
}

func TestViolationsSortedByName(t *testing.T) {
	base := report(kernel("BenchmarkZeta", 100, 0), kernel("BenchmarkAlpha", 100, 0))
	cur := report(kernel("BenchmarkZeta", 100, 1), kernel("BenchmarkAlpha", 100, 1))
	got := benchgate.Compare(base, cur)
	if len(got) != 2 || got[0].Name != "BenchmarkAlpha" || got[1].Name != "BenchmarkZeta" {
		t.Fatalf("violations not sorted: %v", got)
	}
}
