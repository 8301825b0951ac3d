package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"p2prank/bench/workload"
)

// Spec is BENCHMARK.json: the contract between this harness and
// whoever runs it. It has exactly these keys.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json, so the harness runs the same from the
// repository root (the driver) and from bench/ (go run).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate holds BENCHMARK.json to its format and to the harness: it
// lists exactly the workloads the harness can run and exactly the
// end-to-end metrics the harness computes. It returns every problem
// found. Per-layer names are checked when a traced run reports them.
func (s *Spec) validate() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		fail("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		fail("command has %d strings, want 1..32", len(s.Command))
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		fail("paths has %d entries, want 1..16", len(s.Paths))
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		fail("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		fail("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		fail("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			fail("name %q is used twice", n)
		}
		seen[n] = true
	}
	// same reports the names on one side of the contract only.
	same := func(kind string, listed, harness []string) {
		in := map[string]int{}
		for _, n := range listed {
			in[n] |= 1
		}
		for _, n := range harness {
			in[n] |= 2
		}
		for n, where := range in {
			switch where {
			case 1:
				fail("%s %q is not one the harness has", kind, n)
			case 2:
				fail("the harness's %s %q is missing from BENCHMARK.json", kind, n)
			}
		}
	}

	var listed []string
	for _, w := range s.Workloads {
		name("workload", w.Name)
		listed = append(listed, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			fail("workload %q: why must be one line of 1..200 characters", w.Name)
		}
	}
	same("workload", listed, workload.Names())

	metrics := func(list []SpecMetric, bounded bool) (names []string) {
		for _, m := range list {
			name("metric", m.Name)
			names = append(names, m.Name)
			if !unitRE.MatchString(m.Unit) {
				fail("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				fail("%s: better is %q, want lower or higher", m.Name, m.Better)
			}
			switch {
			case bounded && m.Bound == nil:
				fail("%s: end-to-end metric without a bound", m.Name)
			case bounded && (*m.Bound <= 0 || *m.Bound > 0.25):
				fail("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			case !bounded && m.Bound != nil:
				fail("%s: per-layer metric with a bound", m.Name)
			}
		}
		return names
	}
	same("end-to-end metric", metrics(s.EndToEnd, true),
		[]string{workload.SetupS, workload.WallS, workload.PeakRSSMB, workload.AnsweredShare})
	metrics(s.PerLayer, false)
	for _, m := range s.EndToEnd {
		if m.Name == workload.SetupS && (m.Unit != "s" || m.Better != "lower") {
			fail("setup_s must have unit s and better lower")
		}
	}
	return bad
}
