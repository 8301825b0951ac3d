package cliflags

import (
	"flag"
	"math"
	"strings"
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
	if fc.DropProb != 0.1 || fc.DelayProb != 0.2 || fc.MeanDelay != 3*ms || fc.DupProb != 0.05 {
		t.Fatalf("parsed %+v", fc)
	}
	// Delays without an explicit mean get the documented default.
	fc, err = ParseFault("delay=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if fc.MeanDelay != 5*ms {
		t.Fatalf("MeanDelay = %v; want the default 5 ms", fc.MeanDelay)
	}
	for _, bad := range []string{"drop", "drop=x", "jitter=1", "drop=2", "delay=0.5,meandelay=1e303"} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

// TestParseTimesAreMilliseconds pins the one unit rule of both specs:
// every time is read in milliseconds and returned in nanoseconds,
// whatever its size — 2000000 is 2000 s, not 2 ms already in
// nanoseconds.
func TestParseTimesAreMilliseconds(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want dprcore.FaultConfig
	}{
		{
			spec: "delay=0.5,meandelay=3,partition=0.3,pfrom=2,pto=9,straggle=0.25,sfactor=4",
			want: dprcore.FaultConfig{DelayProb: 0.5, MeanDelay: 3 * ms, PartitionFrac: 0.3, PartitionFrom: 2 * ms,
				PartitionTo: 9 * ms, StraggleFrac: 0.25, StraggleFactor: 4 * ms},
		},
		{
			spec: "delay=0.5,meandelay=2000000,partition=0.3,pfrom=1000000,pto=8000000",
			want: dprcore.FaultConfig{DelayProb: 0.5, MeanDelay: 2e12, PartitionFrac: 0.3, PartitionFrom: 1e12, PartitionTo: 8e12},
		},
		{spec: "partition=0.4,pfrom=0,pto=8000", want: dprcore.FaultConfig{PartitionFrac: 0.4, PartitionTo: 8e9}},
		{spec: "partition=0.3,pfrom=5", want: dprcore.FaultConfig{PartitionFrac: 0.3, PartitionFrom: 5 * ms, PartitionTo: math.MaxFloat64}},
		{spec: "straggle=0.25,fseed=42", want: dprcore.FaultConfig{StraggleFrac: 0.25, StraggleFactor: 5 * ms, Seed: 42}},
	} {
		if got, err := ParseFault(tc.spec); err != nil || got != tc.want {
			t.Errorf("ParseFault(%q) = %+v, %v\nwant %+v", tc.spec, got, err, tc.want)
		}
	}
	for spec, want := range map[string]float64{"20": 20 * ms, "timeout=20": 20 * ms, "timeout=2000000": 2e12, "0.5": 0.5 * ms} {
		if got, err := ParseReliable(spec); err != nil || got.Timeout != want {
			t.Errorf("ParseReliable(%q) = %+v, %v; want Timeout %v ns", spec, got, err, want)
		}
	}
}

func TestParseReliable(t *testing.T) {
	rc, err := ParseReliable("")
	if err != nil || rc.Enabled() {
		t.Fatalf("empty spec = %+v, %v; want disabled", rc, err)
	}
	// A bare number is shorthand for timeout=N.
	rc, err = ParseReliable("25")
	if err != nil || rc.Timeout != 25*ms {
		t.Fatalf("bare timeout = %+v, %v; want Timeout 25 ms", rc, err)
	}
	for _, bad := range []string{"timeout=x", "speed=1", "timeout=-1", "timeout", "timeout=1e303"} {
		if _, err := ParseReliable(bad); err == nil {
			t.Errorf("ParseReliable(%q) accepted", bad)
		}
	}
	// The layer's other settings are constants: each key that once set
	// one is refused by name.
	for _, key := range removedReliableKeys {
		spec := "timeout=10," + key + "=2"
		if _, err := ParseReliable(spec); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseReliable(%q) = %v; want a refusal naming %s", spec, err, key)
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
	for _, spec := range []string{"timeout=NaN", "NaN", "Inf", "timeout=+Inf", "-Infinity"} {
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
	// A finite pto too large for nanoseconds is refused, not turned into
	// a partition that never heals.
	if fc, err := ParseFault("partition=0.3,pto=1e303"); err == nil {
		t.Errorf("ParseFault(pto=1e303) accepted: %+v", fc)
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
