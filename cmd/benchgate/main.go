// Command benchgate is the perf ratchet. It runs the gated kernel
// benchmark suite — the one place its -bench pattern and package list
// are written down — and either compares the fresh numbers against the
// committed baseline BENCH_kernels.json or, with -write, records them
// as the new baseline.
//
// An allocs/op increase on a gated kernel fails (exact below 1000
// allocs/op, 0.1% slack above for amortized macro counts; see
// internal/benchgate), and so does a benchmark present in the baseline
// but absent from the current run: a silently vanished kernel is not a
// passing gate. Times are recorded for review, not gated. The suite's
// `go test` child always runs at GOMAXPROCS=1, whatever the host.
//
// Usage:
//
//	go run ./cmd/benchgate                  # run suite, gate against the baseline
//	go run ./cmd/benchgate -input out.txt   # gate a pre-recorded `go test -bench` run ('-' = stdin)
//	go run ./cmd/benchgate -write           # run suite, rewrite the baseline
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"

	"p2prank/internal/benchgate"
)

// The gated suite.
const benchPattern = "MulVec|StepDelta|NewGroupSystem|BuildGroups|Fig6RelativeError|TransmissionScaling|ReliableSend|Schedule|EventLoop|DeliverFixedLatency|GraphLoad|QueryTopK|QueryDegraded|QueryFanout|QueryCacheChurn|SnapshotPublish|TermsOf|FrontendBuild|PeerHandleFrame"

var benchPackages = []string{"./internal/vecmath/", "./internal/pagerank/", "./internal/dprcore/", "./internal/simnet/", "./internal/webgraph/", "./internal/search/", "./internal/serve/", "./internal/netpeer/", "."}

// gateProcs is the GOMAXPROCS the suite runs at. Baseline keys carry
// the proc count (BenchmarkX vs BenchmarkX-8) and allocs/op of the
// parallel kernels move with it, so the gate pins it rather than
// inherit the host's.
const gateProcs = 1

func main() {
	baselinePath := flag.String("baseline", "BENCH_kernels.json", "committed baseline report")
	input := flag.String("input", "", "use this `go test -bench` output file instead of running the suite ('-' for stdin)")
	write := flag.Bool("write", false, "record the run as the new baseline instead of gating against it")
	flag.Parse()

	if *write {
		current, err := currentReport(*input)
		if err != nil {
			fatal(err)
		}
		current.GoVersion = runtime.Version()
		current.GoMaxProcs = gateProcs
		current.Sort()
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: recorded %d kernel(s) in %s\n", len(current.Results), *baselinePath)
		return
	}

	// Baseline first: a missing or malformed one should not cost a suite run.
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("reading baseline: %w (run `make bench` to record one)", err))
	}
	baseline := &benchgate.Report{}
	if err := json.Unmarshal(data, baseline); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", *baselinePath, err))
	}
	current, err := currentReport(*input)
	if err != nil {
		fatal(err)
	}
	violations := benchgate.Compare(baseline, current)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d violation(s) against %s\n", len(violations), *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d kernel(s) within baseline %s [alloc gate]\n", len(baseline.Results), *baselinePath)
}

// currentReport produces the fresh numbers: from a recorded file, from
// stdin, or by running the gated suite.
func currentReport(input string) (*benchgate.Report, error) {
	var sc *bufio.Scanner
	switch input {
	case "":
		args := append([]string{"test", "-run", "^$", "-bench", benchPattern, "-benchmem"}, benchPackages...)
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gateProcs))
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		fmt.Fprintln(os.Stderr, "benchgate: running gated benchmark suite...")
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("bench run: %v\n%s", err, stderr.String())
		}
		sc = bufio.NewScanner(&stdout)
	case "-":
		sc = bufio.NewScanner(os.Stdin)
	default:
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc = bufio.NewScanner(f)
	}
	rep, err := benchgate.Parse(sc)
	if err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in current run")
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}
