// Package cliflags gives the p2prank binaries one spelling and one
// parser per command-line knob. dprnode registers every flag here;
// dprsim registers only -seed, -serve, -qps and -topk, because its
// experiments fix the algorithm, faults, reliability and
// transport themselves. A flag both binaries take is registered here
// once, so its name, default and accepted values cannot drift. The
// -fault and -reliable specs therefore serve live peers only: every
// time in them is read in milliseconds and returned in the nanoseconds
// a live peer's clock counts, whatever its size.
package cliflags

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/serve"
)

// Algorithm registers the shared -alg flag.
func Algorithm(fs *flag.FlagSet) *string {
	return fs.String("alg", "dpr1", "algorithm: dpr1|dpr2")
}

// ParseAlgorithm maps an -alg value (case-insensitive; empty = DPR1).
func ParseAlgorithm(name string) (dprcore.Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "dpr1":
		return dprcore.DPR1, nil
	case "dpr2":
		return dprcore.DPR2, nil
	}
	return 0, fmt.Errorf("unknown -alg %q (dpr1|dpr2)", name)
}

// Fault registers the shared -fault flag.
func Fault(fs *flag.FlagSet) *string {
	return fs.String("fault", "",
		"message faults, times in ms: drop=P[,delay=P][,meandelay=MS][,dup=P]"+
			"[,partition=F,pfrom=MS,pto=MS][,straggle=F,sfactor=MS][,fseed=N] (empty = none)")
}

// ms is one millisecond in the nanoseconds live peers count time in.
const ms = float64(time.Millisecond)

// nanos reads a spec time given in milliseconds as nanoseconds. A
// finite time too large for that is refused; NaN and ±Inf pass through
// for the config's Validate to judge.
func nanos(flagName, part string, v float64) (float64, error) {
	ns := v * ms
	if math.IsInf(ns, 0) && !math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad %s value %q: %v ms overflows nanoseconds", flagName, part, v)
	}
	return ns, nil
}

// ParseFault maps a -fault spec — comma-separated key=value pairs with
// keys drop, delay, meandelay, dup, partition, pfrom, pto, straggle,
// sfactor, fseed — onto a dprcore.FaultConfig for live peers. Every
// time (meandelay, pfrom, pto, sfactor) is read in milliseconds and
// returned in nanoseconds, whatever its size. The delay mean defaults
// to 5 ms when delays are enabled without an explicit meandelay, and
// the straggler hold-back likewise defaults to 5 ms; a partition
// without an explicit pto never heals, and pto=Inf says the same thing
// out loud: both set PartitionTo to math.MaxFloat64. Any other NaN or
// infinite value is an error.
func ParseFault(spec string) (dprcore.FaultConfig, error) {
	var fc dprcore.FaultConfig
	if spec == "" {
		return fc, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fc, fmt.Errorf("bad -fault entry %q (want key=value)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return fc, fmt.Errorf("bad -fault value %q: %w", part, err)
		}
		switch strings.ToLower(kv[0]) {
		case "drop":
			fc.DropProb = v
		case "delay":
			fc.DelayProb = v
		case "meandelay", "mean-delay":
			fc.MeanDelay, err = nanos("-fault", part, v)
		case "dup":
			fc.DupProb = v
		case "partition":
			fc.PartitionFrac = v
		case "pfrom", "partition-from":
			fc.PartitionFrom, err = nanos("-fault", part, v)
		case "pto", "partition-to":
			if math.IsInf(v, 1) {
				fc.PartitionTo = math.MaxFloat64
			} else {
				fc.PartitionTo, err = nanos("-fault", part, v)
			}
		case "straggle":
			fc.StraggleFrac = v
		case "sfactor", "straggle-factor":
			fc.StraggleFactor, err = nanos("-fault", part, v)
		case "fseed", "fault-seed":
			// NaN, ±Inf and floats past uint64's range convert to
			// implementation-defined seeds.
			if !(v >= 0 && v < 1<<64) {
				return fc, fmt.Errorf("bad -fault value %q: seed outside [0, 2^64)", part)
			}
			fc.Seed = uint64(v)
		default:
			return fc, fmt.Errorf("unknown -fault key %q (drop|delay|meandelay|dup|partition|pfrom|pto|straggle|sfactor|fseed)", kv[0])
		}
		if err != nil {
			return fc, err
		}
	}
	if fc.DelayProb > 0 && fc.MeanDelay == 0 {
		fc.MeanDelay = 5 * ms
	}
	if fc.PartitionFrac > 0 && fc.PartitionTo == 0 {
		fc.PartitionTo = math.MaxFloat64
	}
	if fc.StraggleFrac > 0 && fc.StraggleFactor == 0 {
		fc.StraggleFactor = 5 * ms
	}
	if err := fc.Validate(); err != nil {
		return fc, fmt.Errorf("bad -fault %q: %w", spec, err)
	}
	return fc, nil
}

// Reliable registers the shared -reliable flag.
func Reliable(fs *flag.FlagSet) *string {
	return fs.String("reliable", "",
		"reliable delivery: the retransmission timeout in ms, as MS or timeout=MS (empty = off)")
}

// ParseReliable maps a -reliable spec onto a dprcore.ReliableConfig.
// The layer has one knob, its retransmission timeout, given as a bare
// number or as timeout=MS; any other key is refused by name. The
// timeout is read in milliseconds and returned in nanoseconds; NaN and
// infinite values are errors.
func ParseReliable(spec string) (dprcore.ReliableConfig, error) {
	var rc dprcore.ReliableConfig
	if spec == "" {
		return rc, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kv := strings.SplitN(part, "=", 2)
		if len(kv) == 2 && !strings.EqualFold(kv[0], "timeout") {
			return rc, fmt.Errorf("unknown -reliable key %q (the one knob is timeout)", kv[0])
		}
		v, err := strconv.ParseFloat(kv[len(kv)-1], 64)
		if err != nil {
			return rc, fmt.Errorf("bad -reliable entry %q (want a timeout in ms, bare or as timeout=MS)", part)
		}
		if rc.Timeout, err = nanos("-reliable", part, v); err != nil {
			return rc, err
		}
	}
	if err := rc.Validate(); err != nil {
		return rc, fmt.Errorf("bad -reliable %q: %w", spec, err)
	}
	return rc, nil
}

// Transport registers the shared -transport flag.
func Transport(fs *flag.FlagSet) *string {
	return fs.String("transport", "direct", "score transmission: direct|indirect (§4.4)")
}

// ParseTransport maps a -transport value (empty = direct) and reports
// whether indirect transmission was selected.
func ParseTransport(name string) (indirect bool, err error) {
	switch strings.ToLower(name) {
	case "", "direct":
		return false, nil
	case "indirect":
		return true, nil
	}
	return false, fmt.Errorf("unknown -transport %q (direct|indirect)", name)
}

// Seed registers the shared -seed flag.
func Seed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "deterministic seed")
}

// ServeAddr registers the shared -serve flag: the query tier's HTTP
// listen address (empty = serving off).
func ServeAddr(fs *flag.FlagSet) *string {
	return fs.String("serve", "", "serve the query API on addr:port (empty = off)")
}

// QPS registers the shared -qps flag: the load generator's target
// query rate (0 = unthrottled).
func QPS(fs *flag.FlagSet) *int {
	return fs.Int("qps", 0, "target queries per second for the load generator (0 = unthrottled)")
}

// TopK registers the shared -topk flag: results returned per query.
func TopK(fs *flag.FlagSet) *int {
	return fs.Int("topk", 10, fmt.Sprintf("results per query (at most %d)", serve.MaxK))
}
