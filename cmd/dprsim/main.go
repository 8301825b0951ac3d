// Command dprsim runs the paper's simulated experiments and prints
// their tables or CSV curves. The experiments are declared once, in
// internal/experiments' registry; `dprsim -h` lists them.
//
// Scale the workload with -pages / -sites; write any experiment's
// tables or curves as CSV with -csv FILE.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"p2prank/internal/cliflags"
	"p2prank/internal/experiments"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

func main() {
	var (
		exp     = flag.String("exp", experiments.All()[0].Name, "experiment (listed above)")
		pages   = flag.Int("pages", 20000, "crawl size")
		sites   = flag.Int("sites", 0, "site count, at most -pages (0 = the paper's 100, or the generator's own under 100 pages)")
		seed    = cliflags.Seed(flag.CommandLine)
		k       = flag.Int("k", 0, "ranker count (0 = the experiment's paper value)")
		ks      = flag.String("ks", "", "comma-separated ranker counts for sweeps (empty = the experiment's paper values)")
		maxTime = flag.Float64("maxtime", 0, "virtual-time horizon of every simulated run (0 = the experiment's own)")
		csvPath = flag.String("csv", "", "write tables or curves as CSV to this file")
		graph   = flag.String("graph", "", "rank this crawl file instead of generating one (text or mapped)")
		gstore  = flag.String("graphstore", "disk", "scale-experiment graph store: disk (generate to a temp file, mmap it) or mem")
		gengen  = flag.String("gengraph", "", "internal: write the -pages/-sites/-seed workload to this path in mapped format and exit")
		queries = flag.Int("queries", 5000, "serve-experiment query count per K")
		srvAddr = cliflags.ServeAddr(flag.CommandLine)
		qps     = cliflags.QPS(flag.CommandLine)
		topk    = cliflags.TopK(flag.CommandLine)
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: dprsim -exp NAME [flags]\n\nExperiments:\n%s\nFlags:\n", experiments.Usage())
		flag.PrintDefaults()
	}
	flag.Parse()

	w := experiments.Workload{Pages: *pages, Sites: *sites, Seed: *seed}
	if *gengen != "" {
		// Re-exec child mode for -graphstore disk: generation's transient
		// heap lands in this short-lived process, not the measured parent.
		if g, err := w.Generate(); err != nil {
			fatal(err)
		} else if err := webgraph.WriteMappedFile(*gengen, g); err != nil {
			fatal(err)
		}
		return
	}
	if *graph != "" {
		src, err := webgraph.Open(*graph)
		if err != nil {
			fatal(err)
		}
		defer src.Close()
		w.Source = src
	}
	e, err := experiments.Lookup(*exp)
	if err != nil {
		fatal(err)
	}
	counts, err := parseKs(*ks)
	if err != nil {
		fatal(err)
	}
	// The process side of the wall-clock experiments: the clock, VmHWM,
	// and the two things only a command may do — re-exec itself to build
	// a graph off-heap, and listen on a socket.
	meter := experiments.Meter{Clock: serve.WallClock{}, PeakRSSMB: peakRSSMB}
	switch *gstore {
	case "disk":
		meter.OnDisk = mappedWorkload
	case "mem":
	default:
		fatal(fmt.Errorf("unknown -graphstore %q (want disk or mem)", *gstore))
	}
	if *srvAddr != "" {
		meter.Expose = func(fe *serve.Frontend, topk int) error {
			ln, err := net.Listen("tcp", *srvAddr)
			if err != nil {
				return err
			}
			fmt.Printf("serving: http://%s/search?terms=0,1&k=%d\n", ln.Addr(), topk)
			return http.Serve(ln, serve.NewHandler(fe, topk, nil).Mux())
		}
	}
	res, err := e.Run(experiments.Params{
		Workload: w, K: *k, Ks: counts, MaxTime: *maxTime,
		Queries: *queries, QPS: *qps, TopK: *topk,
		Meter: meter, Log: os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	if err := emit(res, *csvPath); err != nil {
		fatal(err)
	}
}

// emit prints the result, or with -csv prints its caption and writes
// the tables and curves to the file.
func emit(res *experiments.Result, csvPath string) error {
	if csvPath == "" {
		return res.WriteText(os.Stdout)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	what := "tables"
	if len(res.Curves) > 0 {
		what = "curves"
	}
	if res.Caption != "" {
		fmt.Println(res.Caption)
	}
	fmt.Printf("%s written to %s\n", what, csvPath)
	return nil
}

// mappedWorkload materializes w on disk in a child process (so the
// generator's transient allocations never inflate this process's VmHWM)
// and maps the file read-only. The returned func unmaps and removes it.
func mappedWorkload(w experiments.Workload) (*webgraph.Graph, func(), error) {
	f, err := os.CreateTemp("", "dprsim-graph-*.bin")
	if err != nil {
		return nil, nil, err
	}
	path := f.Name()
	f.Close()
	fail := func(err error) (*webgraph.Graph, func(), error) {
		os.Remove(path)
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	cmd := exec.Command(exe, "-gengraph", path,
		"-pages", strconv.Itoa(w.Pages),
		"-sites", strconv.Itoa(w.Sites),
		"-seed", strconv.FormatUint(w.Seed, 10))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fail(fmt.Errorf("generating workload graph: %w", err))
	}
	m, err := webgraph.OpenMapped(path)
	if err != nil {
		return fail(err)
	}
	return m, func() {
		m.Close()
		os.Remove(path)
	}, nil
}

// peakRSSMB reads the process's resident-set high-water mark from
// /proc/self/status (VmHWM, in kB). 0 when unavailable (non-Linux).
func peakRSSMB() float64 {
	data, _ := os.ReadFile("/proc/self/status")
	var kb float64
	if i := strings.Index(string(data), "VmHWM:"); i >= 0 {
		fmt.Sscanf(string(data[i:]), "VmHWM: %f kB", &kb)
	}
	return kb / 1024
}

func parseKs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ks entry %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprsim:", err)
	os.Exit(1)
}
