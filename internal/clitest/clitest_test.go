// Package clitest smoke-tests the command-line tools end to end: it
// builds each binary with the local toolchain and exercises its main
// paths against tiny workloads.
package clitest

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe output collector for child processes.
type syncBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestMain compiles every cmd, and the examples TestExamplesRun runs,
// into a temp dir once per test binary.
var builtDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "p2prank-cli")
	if err != nil {
		panic(err)
	}
	builtDir = dir
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"p2prank/cmd/genweb", "p2prank/cmd/dprsim", "p2prank/cmd/dprnode",
		"p2prank/examples/quickstart", "p2prank/examples/searchdemo", "p2prank/examples/tcpcluster")
	cmd.Dir = repoRoot()
	if out, err := cmd.CombinedOutput(); err != nil {
		panic("building cmds: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	// This package lives at <root>/internal/clitest.
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(builtDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestGenwebStats(t *testing.T) {
	out := run(t, "genweb", "-pages", "3000", "-stats")
	for _, want := range []string{"pages=3000", "intra-site"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// A crawl smaller than the default site floor generates, and a negative
// site count is refused rather than read as "scale with -pages". So is
// a dprsim -sites above -pages: generation used to replace it with the
// default count silently.
func TestGenwebTinyAndNegativeSites(t *testing.T) {
	if out := run(t, "genweb", "-pages", "3"); !strings.Contains(out, "pages=3") {
		t.Fatalf("3-page crawl stats missing:\n%s", out)
	}
	if out := run(t, "dprsim", "-exp", "cut", "-pages", "3", "-k", "2"); !strings.Contains(out, "cut fraction") {
		t.Fatalf("3-page cut malformed:\n%s", out)
	}
	out, err := exec.Command(filepath.Join(builtDir, "genweb"), "-sites", "-1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-sites") {
		t.Fatalf("genweb -sites -1: err %v, output %q; want a refusal naming -sites", err, out)
	}
	out, err = exec.Command(filepath.Join(builtDir, "dprsim"), "-exp", "cut", "-pages", "200", "-sites", "300", "-k", "4").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-sites 300") || !strings.Contains(string(out), "-pages 200") {
		t.Fatalf("dprsim -pages 200 -sites 300: err %v, output %q; want a refusal naming both", err, out)
	}
}

// A shape flag webgraph.Generate would refuse is refused by the flag's
// own name, not the GenConfig field it sets: NaN and Inf degrees used to
// write a crawl of no links, a NaN external fraction one with almost
// none leaving it. A degree in (0, 1) is refused too: every linking
// page gets at least one link, so it used to mean 1.
func TestGenwebNonFiniteShapeRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-degree", "NaN"}, "-degree NaN, must be finite"},
		{[]string{"-degree", "Inf"}, "-degree +Inf, must be finite"},
		{[]string{"-degree", "0.5"}, "-degree 0.5, must be finite and 0 or at least 1"},
		{[]string{"-extfrac", "NaN"}, "-extfrac NaN outside [0,1]"},
		{[]string{"-extfrac", "1.5"}, "-extfrac 1.5 outside [0,1]"},
		{[]string{"-sites", "3000", "-pages", "2000"}, "-sites 3000 exceeds -pages 2000"},
	} {
		args := append([]string{"-pages", "1000"}, c.args...)
		out, err := exec.Command(filepath.Join(builtDir, "genweb"), args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("genweb %s: err %v, output %q; want a refusal containing %q", strings.Join(c.args, " "), err, out, c.want)
		}
	}
}

func TestGenwebWriteAndDprnodeLoad(t *testing.T) {
	graph := filepath.Join(t.TempDir(), "crawl.bin")
	run(t, "genweb", "-pages", "2000", "-out", graph)
	if _, err := os.Stat(graph); err != nil {
		t.Fatalf("graph not written: %v", err)
	}
	// Text format too.
	textGraph := filepath.Join(t.TempDir(), "crawl.txt")
	run(t, "genweb", "-pages", "500", "-out", textGraph)
}

func TestGenwebCut(t *testing.T) {
	out := run(t, "genweb", "-pages", "4000", "-cut", "-k", "8")
	if !strings.Contains(out, "by-site") || !strings.Contains(out, "random") {
		t.Fatalf("cut table missing:\n%s", out)
	}
	// The cut measures the crawl genweb generated, shape flags included.
	sparse := run(t, "genweb", "-pages", "4000", "-cut", "-k", "8", "-degree", "4", "-extfrac", "0.2")
	table := func(out string) string { return out[strings.Index(out, "partition cut"):] }
	if table(sparse) == table(out) {
		t.Fatalf("-degree 4 -extfrac 0.2 cut the same as the default crawl:\n%s", sparse)
	}
}

// TestDprsimTable1: the registry's table1 prints the paper's Table 1 —
// T = 7500/10500/12000 s and 100/10/1 KB/s at N = 10³/10⁴/10⁵ — with
// the experiment's default Ks.
func TestDprsimTable1(t *testing.T) {
	out := run(t, "dprsim", "-exp", "table1")
	rows := map[string][2]string{"1000": {"7500", "100"}, "10000": {"10500", "10"}, "100000": {"12000", "1"}}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		if want, ok := rows[f[0]]; ok {
			if f[2] != want[0] || f[3] != want[1] {
				t.Errorf("N=%s: T = %s s, bottleneck %s KB/s; Table 1 says %s s, %s KB/s", f[0], f[2], f[3], want[0], want[1])
			}
			delete(rows, f[0])
		}
	}
	if len(rows) != 0 {
		t.Fatalf("rows for N in %v missing:\n%s", rows, out)
	}
}

func TestDprsimFig7(t *testing.T) {
	out := run(t, "dprsim", "-exp", "fig7", "-pages", "2500", "-sites", "15", "-k", "6", "-maxtime", "30")
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "time,A") {
		t.Fatalf("fig7 output malformed:\n%s", out)
	}
}

func TestDprsimCSVOutput(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "curves.csv")
	run(t, "dprsim", "-exp", "fig6", "-pages", "2000", "-sites", "10", "-k", "4", "-maxtime", "20", "-csv", csv)
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,") {
		t.Fatalf("CSV header wrong: %q", string(data[:40]))
	}
}

func TestDprsimCut(t *testing.T) {
	out := run(t, "dprsim", "-exp", "cut", "-pages", "3000", "-sites", "20", "-k", "8")
	if !strings.Contains(out, "cut fraction") {
		t.Fatalf("cut output malformed:\n%s", out)
	}
}

func TestDprsimUnknownExperiment(t *testing.T) {
	cmd := exec.Command(filepath.Join(builtDir, "dprsim"), "-exp", "nonsense")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown experiment exited 0")
	}
}

// A damaged crawl file is an error at open, not a panic mid-run: one
// out-dst entry of a good file is pointed past the last page, which
// used to surface as an index out of range inside partition.Cut.
func TestDprsimCorruptGraphFile(t *testing.T) {
	graph := filepath.Join(t.TempDir(), "crawl.bin")
	run(t, "genweb", "-pages", "2000", "-out", graph)
	if out := run(t, "dprsim", "-exp", "cut", "-k", "8", "-graph", graph); !strings.Contains(out, "cut fraction") {
		t.Fatalf("cut off the intact file malformed:\n%s", out)
	}
	data, err := os.ReadFile(graph)
	if err != nil {
		t.Fatal(err)
	}
	// The section table starts at byte 64, 24 bytes an entry with the
	// payload offset at +8; out-dst is the seventh section.
	outDst := binary.LittleEndian.Uint64(data[64+6*24+8:])
	binary.LittleEndian.PutUint32(data[outDst:], 1999999)
	if err := os.WriteFile(graph, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd := exec.Command(filepath.Join(builtDir, "dprsim"), "-exp", "cut", "-k", "8", "-graph", graph)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("corrupt graph file exited 0")
	}
	if msg := stderr.String(); !strings.Contains(msg, "webgraph:") || strings.Contains(msg, "goroutine") {
		t.Fatalf("want a webgraph error and no stack trace, got:\n%s", msg)
	}
}

// TestDprsimNonFiniteMaxTime: a NaN or infinite horizon is an error
// naming the field, not a scheduler panic or a run that never returns.
func TestDprsimNonFiniteMaxTime(t *testing.T) {
	for _, v := range []string{"NaN", "Inf"} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		var stderr strings.Builder
		cmd := exec.CommandContext(ctx, filepath.Join(builtDir, "dprsim"),
			"-exp", "fig7", "-pages", "2000", "-sites", "15", "-k", "8", "-maxtime", v)
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("-maxtime %s: still running after 60s", v)
		}
		if err == nil {
			t.Fatalf("-maxtime %s exited 0", v)
		}
		if msg := stderr.String(); !strings.Contains(msg, "MaxTime") || strings.Contains(msg, "goroutine") {
			t.Fatalf("-maxtime %s: want a MaxTime error and no stack trace, got:\n%s", v, msg)
		}
	}
}

// TestDprsimBadRankerCounts: a negative -k is refused, not read as
// "the default", and a non-positive -ks entry is an error naming K, not
// a makeslice panic building the ring.
func TestDprsimBadRankerCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "cut", "-pages", "2000", "-k", "-3"},
		{"-exp", "hops", "-ks", "-5"},
		{"-exp", "hops", "-ks", "8,0"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(filepath.Join(builtDir, "dprsim"), args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("%v exited 0", args)
		}
		if msg := stderr.String(); !strings.Contains(msg, "K =") || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: want an error naming K and no stack trace, got:\n%s", args, msg)
		}
	}
}

// TestDprsimBadServeInputs: a -topk outside [1, serve.MaxK], a
// negative -qps and a storm too short for its schedule are refused
// before any tier is built, with an error naming the field — not a
// failed first query, a silent closed loop, a merge heap sized by the
// flag, or a stack trace.
func TestDprsimBadServeInputs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "serve", "-ks", "16", "-topk", "0"}, "TopK"},
		{[]string{"-exp", "degrade", "-k", "16", "-topk", "-1"}, "TopK"},
		{[]string{"-exp", "serve", "-ks", "16", "-topk", "1001"}, "TopK = 1001, must be at most 1000"},
		{[]string{"-exp", "degrade", "-k", "16", "-topk", "1001"}, "TopK = 1001, must be at most 1000"},
		{[]string{"-exp", "serve", "-ks", "16", "-queries", "200", "-qps", "-5"}, "QPS"},
		{[]string{"-exp", "degrade", "-k", "16", "-queries", "16"}, "Queries"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(filepath.Join(builtDir, "dprsim"), c.args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("%v exited 0", c.args)
		}
		if msg := stderr.String(); !strings.Contains(msg, c.want) || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: want an error naming %s and no stack trace, got:\n%s", c.args, c.want, msg)
		}
	}
}

// TestDprnodeBadServeInputs: dprnode refuses a -topk outside
// [1, serve.MaxK] and a negative -qps with dprsim's wording, before it builds a crawl or a
// cluster — not a load generator whose every query fails, or a banner
// advertising a k the handler does not use. The same holds, within a
// few seconds, for a -target no run can reach (it used to rank until
// Converge's two-minute deadline) and a -k below one (it used to print
// the banner first). A flag of the other mode is refused too: -demo
// used to rank a synthetic crawl without opening -graph, and a peer
// ignored -pages and -target.
func TestDprnodeBadServeInputs(t *testing.T) {
	const crawl = "/nonexistent/crawl.bin"
	demo := func(args ...string) []string {
		return append([]string{"-demo", "-k", "3", "-pages", "2000", "-serve", "127.0.0.1:0", "-qps", "200"}, args...)
	}
	type badRun struct {
		args []string
		want string
	}
	runs := []badRun{
		{demo("-topk", "0"), "TopK = 0, must be positive"},
		{demo("-topk", "-3"), "TopK = -3, must be positive"},
		{demo("-topk", "1001"), "TopK = 1001, must be at most 1000"},
		{demo("-qps", "-5"), "QPS = -5, must not be negative"},
		{demo("-target", "0"), "Target = 0, must be positive"},
		{demo("-target", "-1e-6"), "Target = -1e-06, must be positive"},
		{demo("-target", "NaN"), "Target = NaN, must be positive"},
		{demo("-target", "+Inf"), "Target = +Inf, must be finite"},
		{demo("-k", "0"), "K = 0, must be positive"},
		{demo("-k", "-2"), "K = -2, must be positive"},
		{demo("-graph", crawl), "-graph does not apply to -demo"},
		{demo("-index", "1"), "-index does not apply to -demo"},
		{demo("-listen", "127.0.0.1:0"), "-listen does not apply to -demo"},
		{demo("-peers", "1=127.0.0.1:1"), "-peers does not apply to -demo"},
		{[]string{"-graph", crawl, "-k", "2", "-pages", "200"}, "-pages requires -demo"},
		{[]string{"-graph", crawl, "-k", "2", "-target", "1e-3"}, "-target requires -demo"},
	}
	// The reliable layer's one knob is its timeout: every key that once
	// set another of its values is refused by name.
	for _, key := range []string{"backoff", "maxtimeout", "max-timeout", "jitter", "attempts", "maxattempts", "cooldown"} {
		runs = append(runs, badRun{demo("-reliable", key+"=3"), `unknown -reliable key "` + key + `"`})
	}
	runs = append(runs, badRun{demo("-reliable", "timeout=20,cooldown=2000000"), `unknown -reliable key "cooldown"`})
	for _, c := range runs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var stdout, stderr strings.Builder
		cmd := exec.CommandContext(ctx, filepath.Join(builtDir, "dprnode"), c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("%v: not refused within 5 s:\n%s", c.args, stdout.String())
		}
		if err == nil {
			t.Fatalf("%v exited 0:\n%s", c.args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, c.want) || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: want %q and no stack trace, got:\n%s", c.args, c.want, msg)
		}
		if out := stdout.String(); out != "" {
			t.Fatalf("%v: refused after starting:\n%s", c.args, out)
		}
	}
}

func TestDprnodeDemo(t *testing.T) {
	out := run(t, "dprnode", "-demo", "-pages", "1500", "-k", "3", "-target", "1e-4")
	if !strings.Contains(out, "converged to relative error") {
		t.Fatalf("demo did not converge:\n%s", out)
	}
	if !strings.Contains(out, "top pages") {
		t.Fatalf("demo missing top pages:\n%s", out)
	}
}

// TestDprnodeMultiProcess runs three dprnode processes against a shared
// crawl file — the real deployment shape — and verifies each makes
// ranking progress and exchanges chunks before being stopped.
func TestDprnodeMultiProcess(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "crawl.bin")
	run(t, "genweb", "-pages", "3000", "-out", graph)

	// Fixed localhost ports; chosen high to dodge collisions.
	ports := []string{"38471", "38472", "38473"}
	addr := func(i int) string { return "127.0.0.1:" + ports[i] }
	outputs := make([]*syncBuf, 3)
	for i := 0; i < 3; i++ {
		var peers []string
		for j := 0; j < 3; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, addr(j)))
			}
		}
		cmd := exec.Command(filepath.Join(builtDir, "dprnode"),
			"-graph", graph, "-k", "3", "-index", fmt.Sprint(i),
			"-listen", addr(i), "-peers", strings.Join(peers, ","))
		sb := &syncBuf{}
		cmd.Stdout = sb
		cmd.Stderr = sb
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		outputs[i] = sb
		defer func() {
			cmd.Process.Signal(os.Interrupt)
			cmd.Wait()
		}()
	}
	// Each node reports status every 5 s; wait for the first reports.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := 0
		for i := range outputs {
			out := outputs[i].String()
			if strings.Contains(out, "loops=") && !strings.Contains(out, "loops=0 ") {
				ready++
			}
		}
		if ready == 3 {
			break
		}
		if time.Now().After(deadline) {
			for i := range outputs {
				t.Logf("node %d output:\n%s", i, outputs[i].String())
			}
			t.Fatal("nodes did not report progress in time")
		}
		time.Sleep(200 * time.Millisecond)
	}
	for i := range outputs {
		out := outputs[i].String()
		if !strings.Contains(out, "listening on") {
			t.Fatalf("node %d never listened:\n%s", i, out)
		}
	}
}

// TestExamplesRun runs the three examples end to end: quickstart,
// README's first example; searchdemo, whose query tier routes over the
// ring and partition engine.Run deployed; and tcpcluster, whose live
// peers converge and survive a killed peer. Figures 6 and 7 and the
// §4.4 traffic comparison are `dprsim -exp` entries, held by
// experiments.TestFig7Shape and the fig6, fig7 and transmission goldens.
func TestExamplesRun(t *testing.T) {
	if out := run(t, "quickstart"); !strings.Contains(out, "relative error vs centralized: ") {
		t.Fatalf("quickstart output lacks the relative error line:\n%s", out)
	}
	if out := run(t, "searchdemo"); !strings.Contains(out, "static index: 240000 postings") {
		t.Fatalf("searchdemo output lacks the static index line:\n%s", out)
	}
	if out := run(t, "tcpcluster"); !strings.Contains(out, "final relative error vs centralized: ") {
		t.Fatalf("tcpcluster output lacks the final error line:\n%s", out)
	}
}

// TestReadmeListsEveryExperiment keeps README's experiment list in step
// with the registry, both ways: every `-exp NAME  summary` line in the
// Experiments block `dprsim -h` prints appears in README verbatim, every
// README line starting `  -exp ` is one of them, and -h lists at least
// the paper's three figures.
func TestReadmeListsEveryExperiment(t *testing.T) {
	out := run(t, "dprsim", "-h")
	readme, err := os.ReadFile(filepath.Join(repoRoot(), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	start, end := strings.Index(out, "Experiments:\n"), strings.Index(out, "\nFlags:\n")
	if start < 0 || end < start {
		t.Fatalf("dprsim -h has no Experiments block before Flags:\n%s", out)
	}
	registry := map[string]bool{}
	for _, line := range strings.Split(out[start:end], "\n") {
		if strings.HasPrefix(line, "  -exp ") {
			registry[line] = true
			if !strings.Contains(string(readme), line+"\n") {
				t.Errorf("README.md is missing the registry line %q", line)
			}
		}
	}
	if len(registry) < 3 {
		t.Fatalf("dprsim -h listed %d experiments:\n%s", len(registry), out)
	}
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "  -exp ") && !registry[line] {
			t.Errorf("README.md lists %q, which is no registry line", line)
		}
	}
}

// TestDprsimCSVForTables: -csv works for table experiments too, writing
// the cells the terminal would have shown.
func TestDprsimCSVForTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.csv")
	out := run(t, "dprsim", "-exp", "cut", "-pages", "3000", "-sites", "20", "-k", "8", "-csv", path)
	if !strings.Contains(out, "tables written to "+path) {
		t.Fatalf("no confirmation line:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "strategy,cut fraction,") || !strings.Contains(string(data), "\nby-site,") {
		t.Fatalf("CSV malformed:\n%s", data)
	}
}
