package cliflags

import (
	"cmp"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// nonFinite names the first float64 field of a config struct that is
// NaN or infinite, or returns "" when every one is finite.
func nonFinite(cfg any) string {
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			return v.Type().Field(i).Name
		}
	}
	return ""
}

// removedReliableKeys once set the reliable layer's backoff, cap,
// jitter, attempt bound and cooldown, which are constants now.
var removedReliableKeys = []string{"backoff", "maxtimeout", "max-timeout", "jitter", "attempts", "maxattempts", "cooldown"}

// specSeeds are the flag help strings' shapes, times either side of
// 1 ms, the non-finite cases that once passed validation, and every
// removed -reliable key.
var specSeeds = []string{
	"", "drop=0.1,delay=0.2,meandelay=3,dup=0.05", "delay=0.5", "drop=2", "drop",
	"partition=0.3,pfrom=2,pto=9", "partition=0.3,pto=Inf", "straggle=0.25,sfactor=4,fseed=7",
	"delay=0.5,meandelay=Inf", "drop=NaN", "straggle=0.5,sfactor=+Inf", "fseed=NaN",
	"delay=0.5,mean-delay=2000000", "25", "timeout=NaN", "partition=0.4,pfrom=0,pto=8000",
	"timeout=20", "timeout=-1", "partition=0.3,pto=1e303", "timeout=2000000",
	"timeout=20,backoff=2", "timeout=20,maxtimeout=80", "timeout=20,max-timeout=80", "timeout=20,jitter=0.2",
	"timeout=20,attempts=4", "timeout=20,maxattempts=4", "timeout=20,cooldown=2000000",
}

// specValues reads an accepted spec back: each key's last value, with
// the long spellings folded onto the short ones and a bare number filed
// under timeout.
func specValues(spec string) map[string]float64 {
	long := map[string]string{"mean-delay": "meandelay", "partition-from": "pfrom", "partition-to": "pto", "straggle-factor": "sfactor"}
	vals := map[string]float64{}
	if spec == "" {
		return vals
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		key := "timeout"
		if len(kv) == 2 {
			key = strings.ToLower(kv[0])
		}
		key = cmp.Or(long[key], key)
		vals[key], _ = strconv.ParseFloat(kv[len(kv)-1], 64)
	}
	return vals
}

// FuzzParseFault: a -fault spec either fails to parse or yields a
// config Validate accepts with every float field finite, and every time
// in it is the spec's value × 10⁶ ns — milliseconds whatever the size —
// or the documented default: 5 ms for meandelay and sfactor, and the
// never-healing math.MaxFloat64 for a partition's omitted or Inf pto.
func FuzzParseFault(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fc, err := ParseFault(spec)
		if err != nil {
			return
		}
		if err := fc.Validate(); err != nil {
			t.Fatalf("ParseFault(%q) = %+v, which Validate refuses: %v", spec, fc, err)
		}
		if name := nonFinite(fc); name != "" {
			t.Fatalf("ParseFault(%q) = %+v: %s is not finite", spec, fc, name)
		}
		vals := specValues(spec)
		or := func(v float64, on bool, dflt float64) float64 {
			if v == 0 && on {
				return dflt
			}
			return v
		}
		pto := vals["pto"] * ms
		if math.IsInf(vals["pto"], 1) {
			pto = math.MaxFloat64
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"MeanDelay", fc.MeanDelay, or(vals["meandelay"]*ms, fc.DelayProb > 0, 5*ms)},
			{"PartitionFrom", fc.PartitionFrom, vals["pfrom"] * ms},
			{"PartitionTo", fc.PartitionTo, or(pto, fc.PartitionFrac > 0, math.MaxFloat64)},
			{"StraggleFactor", fc.StraggleFactor, or(vals["sfactor"]*ms, fc.StraggleFrac > 0, 5*ms)},
		} {
			if c.got != c.want {
				t.Fatalf("ParseFault(%q): %s = %v ns, want %v (spec times are milliseconds)", spec, c.name, c.got, c.want)
			}
		}
	})
}

// FuzzParseReliable: a -reliable spec either fails to parse or yields a
// config Validate accepts with a finite timeout of the spec's value ×
// 10⁶ ns, and nothing but a timeout (bare or timeout=) is ever accepted.
func FuzzParseReliable(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rc, err := ParseReliable(spec)
		if err != nil {
			return
		}
		if err := rc.Validate(); err != nil {
			t.Fatalf("ParseReliable(%q) = %+v, which Validate refuses: %v", spec, rc, err)
		}
		if name := nonFinite(rc); name != "" {
			t.Fatalf("ParseReliable(%q) = %+v: %s is not finite", spec, rc, name)
		}
		vals := specValues(spec)
		for key := range vals {
			if key != "timeout" {
				t.Fatalf("ParseReliable(%q) accepted key %q; the one knob is timeout", spec, key)
			}
		}
		if want := vals["timeout"] * ms; rc.Timeout != want {
			t.Fatalf("ParseReliable(%q): Timeout = %v ns, want %v (the timeout is milliseconds)", spec, rc.Timeout, want)
		}
	})
}
