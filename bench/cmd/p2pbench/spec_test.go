package main

import (
	"strings"
	"testing"
)

func TestCommittedSpecMatchesTheHarness(t *testing.T) {
	spec, err := loadSpec("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if bad := spec.validate(); len(bad) > 0 {
		t.Fatalf("BENCHMARK.json does not validate:\n%s", strings.Join(bad, "\n"))
	}
}

func TestValidateReportsWhatIsWrong(t *testing.T) {
	load := func() *Spec {
		spec, err := loadSpec("../../..")
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"bad name", func(s *Spec) { s.PerLayer[0].Name = "web graph" }, "does not match"},
		{"unknown metric", func(s *Spec) { s.EndToEnd[1].Name = "wall_ms" }, "not one the harness has"},
		{"missing workload", func(s *Spec) { s.Workloads = s.Workloads[1:] }, "missing from BENCHMARK.json"},
		{"unknown workload", func(s *Spec) { s.Workloads[0].Name = "sim_huge" }, "not one the harness has"},
		{"bound too wide", func(s *Spec) { b := 0.5; s.EndToEnd[1].Bound = &b }, "outside (0, 0.25]"},
		{"per-layer bound", func(s *Spec) { b := 0.1; s.PerLayer[0].Bound = &b }, "per-layer metric with a bound"},
		{"wrong unit", func(s *Spec) { s.EndToEnd[0].Unit = "ms" }, "setup_s must have unit s"},
		{"run too long", func(s *Spec) { s.RunSeconds = 61 }, "run_seconds"},
	}
	for _, c := range cases {
		spec := load()
		c.mutate(spec)
		bad := strings.Join(spec.validate(), "\n")
		if !strings.Contains(bad, c.want) {
			t.Errorf("%s: validate reported %q, want something containing %q", c.name, bad, c.want)
		}
	}
}
