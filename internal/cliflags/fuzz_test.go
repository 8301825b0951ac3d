package cliflags

import (
	"math"
	"reflect"
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

// specSeeds are the flag help strings' shapes and the non-finite cases
// that once passed validation.
var specSeeds = []string{
	"", "drop=0.1,delay=0.2,meandelay=3,dup=0.05", "delay=0.5", "drop=2", "drop",
	"partition=0.3,pfrom=2,pto=9", "partition=0.3,pto=Inf", "straggle=0.25,sfactor=4,fseed=7",
	"delay=0.5,meandelay=Inf", "drop=NaN", "straggle=0.5,sfactor=+Inf", "fseed=NaN",
	"timeout=10,backoff=2,maxtimeout=80,jitter=0.2,attempts=4,cooldown=100", "25",
	"timeout=NaN", "timeout=1,attempts=Inf", "timeout=1,jitter=-Inf", "timeout=-1",
}

// FuzzParseFault: a -fault spec either fails to parse or yields a
// config Validate accepts with every float field finite — the
// never-healing partition end included, which the parser spells
// math.MaxFloat64.
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
	})
}

// FuzzParseReliable: a -reliable spec either fails to parse or yields a
// config Validate accepts with every float field finite.
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
	})
}
