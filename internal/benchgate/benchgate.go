// Package benchgate is the perf ratchet's library: it parses
// `go test -bench` output into a stable JSON report (the format of the
// committed baseline BENCH_kernels.json) and compares a fresh report
// against that baseline. cmd/benchgate is its one command — it both
// records the baseline and gates against it, so both sides of the
// ratchet agree on what a benchmark result is.
//
// The gate is on allocations only: for kernels under 1000 allocs/op —
// the zero-alloc hot paths the ratchet exists to protect — any
// increase is a regression someone must either fix or re-baseline
// deliberately. Macro-benchmarks whose counts are amortized over b.N
// (hundreds of thousands of allocs/op) jitter by a few counts between
// runs, so they get 0.1% slack: enough to absorb the noise, three
// orders of magnitude below a real one-alloc-per-op leak. Times are
// recorded but not gated here — wall-clock numbers on shared hardware
// jitter far beyond what the alloc counter ever does; end-to-end time
// is judged by the repo benchmark (BENCHMARK.json) and its bounds.
package benchgate

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// Key identifies a result within a report: benchmarks are compared
// name-to-name at equal GOMAXPROCS, never across proc counts.
func (r Result) Key() string {
	return r.Name + "-" + strconv.Itoa(r.Procs)
}

// Report is the full document: environment header plus results. The
// GoVersion and GoMaxProcs fields pin the toolchain and parallelism the
// numbers were measured under — an alloc count is portable, a time is
// only comparable within the same environment.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Pkgs       []string `json:"pkgs,omitempty"`
	Results    []Result `json:"results"`
}

// Sort orders results by (name, procs) so the JSON is stable across
// runs regardless of package test order.
func (rep *Report) Sort() {
	sort.Slice(rep.Results, func(i, j int) bool {
		a, b := rep.Results[i], rep.Results[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Procs < b.Procs
	})
}

// ByKey indexes the results by Result.Key. Duplicate keys keep the
// first occurrence (go test emits one line per benchmark per package).
func (rep *Report) ByKey() map[string]Result {
	out := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		if _, ok := out[r.Key()]; !ok {
			out[r.Key()] = r
		}
	}
	return out
}

// Parse consumes `go test -bench` output and returns the report with
// results in input order (call Sort for the canonical order).
func Parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkgs = append(rep.Pkgs, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "Benchmark"):
			r, err := ParseBench(line)
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, r)
		}
	}
	return rep, sc.Err()
}

// ParseBench parses one result line, e.g.
//
//	BenchmarkMulVec-8  100  10123456 ns/op  42 B/op  3 allocs/op
func ParseBench(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Result{}, fmt.Errorf("short benchmark line %q", line)
	}
	r := Result{Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("iterations in %q: %v", line, err)
	}
	r.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, fmt.Errorf("ns/op in %q: %v", line, err)
			}
		case "B/op":
			if r.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("B/op in %q: %v", line, err)
			}
		case "allocs/op":
			if r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("allocs/op in %q: %v", line, err)
			}
		case "MB/s":
			if r.MBPerSec, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, fmt.Errorf("MB/s in %q: %v", line, err)
			}
		}
	}
	return r, nil
}

// Violation kinds.
const (
	KindAlloc   = "alloc"   // allocs/op increased
	KindMissing = "missing" // baseline kernel absent from the current run
)

// Violation is one gated kernel that moved the wrong way. Every
// violation fails the gate.
type Violation struct {
	Name     string
	Procs    int
	Kind     string
	Baseline int64
	Current  int64
}

func (v Violation) String() string {
	name := v.Name
	if v.Procs > 0 {
		name = fmt.Sprintf("%s-%d", v.Name, v.Procs)
	}
	if v.Kind == KindMissing {
		return fmt.Sprintf("%s: present in baseline but missing from current run", name)
	}
	return fmt.Sprintf("%s: allocs/op %d -> %d (alloc gate: any increase fails)", name, v.Baseline, v.Current)
}

// Compare checks every baseline kernel against the current run and
// returns the violations in (name, procs) order. Kernels that exist
// only in the current run are new benchmarks, not violations — they
// enter the ratchet when the baseline is regenerated.
func Compare(baseline, current *Report) []Violation {
	cur := current.ByKey()
	var out []Violation
	for _, base := range baseline.Results {
		now, ok := cur[base.Key()]
		switch {
		case !ok:
			out = append(out, Violation{Name: base.Name, Procs: base.Procs, Kind: KindMissing})
		case now.AllocsPerOp > base.AllocsPerOp+allocSlack(base.AllocsPerOp):
			out = append(out, Violation{
				Name: base.Name, Procs: base.Procs, Kind: KindAlloc,
				Baseline: base.AllocsPerOp, Current: now.AllocsPerOp,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Procs < b.Procs
	})
	return out
}

// allocSlack is the per-kernel alloc tolerance: zero below 1000
// allocs/op (the gate is exact where zero-alloc discipline applies),
// 0.1% above (amortized macro counts wobble by a few between runs).
func allocSlack(base int64) int64 {
	return base / 1000
}
