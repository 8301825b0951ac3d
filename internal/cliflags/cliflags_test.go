package cliflags

import (
	"flag"
	"math"
	"testing"

	"p2prank/internal/dprcore"
)

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want dprcore.Algorithm
	}{
		{"", dprcore.DPR1},
		{"dpr1", dprcore.DPR1},
		{"DPR1", dprcore.DPR1},
		{"dpr2", dprcore.DPR2},
		{"Dpr2", dprcore.DPR2},
	} {
		got, err := ParseAlgorithm(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseAlgorithm("dpr3"); err == nil {
		t.Error("dpr3 accepted")
	}
}

func TestParseFault(t *testing.T) {
	fc, err := ParseFault("")
	if err != nil || fc.Enabled() {
		t.Fatalf("empty spec = %+v, %v; want disabled", fc, err)
	}
	fc, err = ParseFault("drop=0.1,delay=0.2,meandelay=3,dup=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if fc.DropProb != 0.1 || fc.DelayProb != 0.2 || fc.MeanDelay != 3 || fc.DupProb != 0.05 {
		t.Fatalf("parsed %+v", fc)
	}
	// Delays without an explicit mean get the documented default.
	fc, err = ParseFault("delay=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if fc.MeanDelay != 5 {
		t.Fatalf("MeanDelay = %v; want default 5", fc.MeanDelay)
	}
	for _, bad := range []string{"drop", "drop=x", "jitter=1", "drop=2"} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

func TestParseReliable(t *testing.T) {
	rc, err := ParseReliable("")
	if err != nil || rc.Enabled() {
		t.Fatalf("empty spec = %+v, %v; want disabled", rc, err)
	}
	rc, err = ParseReliable("timeout=10,backoff=2,maxtimeout=80,jitter=0.2,attempts=4,cooldown=100")
	if err != nil {
		t.Fatal(err)
	}
	if rc.Timeout != 10 || rc.Backoff != 2 || rc.MaxTimeout != 80 ||
		rc.Jitter != 0.2 || rc.MaxAttempts != 4 || rc.Cooldown != 100 {
		t.Fatalf("parsed %+v", rc)
	}
	// A bare number is shorthand for timeout=N.
	rc, err = ParseReliable("25")
	if err != nil || rc.Timeout != 25 {
		t.Fatalf("bare timeout = %+v, %v; want Timeout 25", rc, err)
	}
	for _, bad := range []string{"timeout=x", "speed=1", "timeout=-1", "timeout=1,backoff=0.5"} {
		if _, err := ParseReliable(bad); err == nil {
			t.Errorf("ParseReliable(%q) accepted", bad)
		}
	}
}

// NaN and ±Inf are refused in every field of both specs, and what
// ParseFloat reads as Inf in pto is the documented never-healing
// partition, the same MaxFloat64 as leaving pto out.
func TestParseNonFinite(t *testing.T) {
	for _, spec := range []string{
		"delay=0.5,meandelay=Inf", "drop=NaN", "straggle=0.5,sfactor=+Inf", "dup=nan",
		"delay=NaN", "partition=NaN,pto=5", "straggle=inf,sfactor=1", "meandelay=-Inf",
		"partition=0.3,pfrom=Inf", "partition=0.3,pfrom=NaN,pto=5", "partition=0.3,pto=NaN", "partition=0.3,pto=-Inf",
		"fseed=NaN", "fseed=Inf", "fseed=-1", "fseed=1e20",
	} {
		if fc, err := ParseFault(spec); err == nil {
			t.Errorf("ParseFault(%q) accepted: %+v", spec, fc)
		}
	}
	for _, spec := range []string{
		"timeout=NaN", "NaN", "Inf", "timeout=+Inf", "timeout=1,backoff=Inf", "timeout=1,maxtimeout=NaN",
		"timeout=1,jitter=-Inf", "timeout=1,cooldown=Infinity", "timeout=1,attempts=NaN", "timeout=1,attempts=Inf",
		"timeout=1,attempts=1e300",
	} {
		if rc, err := ParseReliable(spec); err == nil {
			t.Errorf("ParseReliable(%q) accepted: %+v", spec, rc)
		}
	}
	for _, spec := range []string{"partition=0.3,pfrom=2", "partition=0.3,pfrom=2,pto=Inf", "partition=0.3,pfrom=2,pto=+infinity"} {
		fc, err := ParseFault(spec)
		if err != nil || fc.PartitionTo != math.MaxFloat64 || !fc.PartitionActiveAt(1e300) {
			t.Errorf("ParseFault(%q) = %+v, %v; want a partition that never heals", spec, fc, err)
		}
	}
}

func TestParseTransport(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{{"", false}, {"direct", false}, {"Direct", false}, {"indirect", true}, {"INDIRECT", true}} {
		got, err := ParseTransport(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Error("bad transport accepted")
	}
}

// TestSharedSpellings pins the contract of the package: each registrar's
// flag name and default.
func TestSharedSpellings(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Algorithm(fs)
	Fault(fs)
	Reliable(fs)
	Transport(fs)
	Seed(fs)
	ServeAddr(fs)
	QPS(fs)
	TopK(fs)
	for name, def := range map[string]string{
		"alg": "dpr1", "fault": "", "reliable": "", "transport": "direct", "seed": "1",
		"serve": "", "qps": "0", "topk": "10",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s not registered", name)
			continue
		}
		if f.DefValue != def {
			t.Errorf("-%s default = %q; want %q", name, f.DefValue, def)
		}
	}
}
