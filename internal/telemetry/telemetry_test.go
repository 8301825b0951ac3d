package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a scripted Clock for tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector(2)
	clk := &fakeClock{t: 10}
	c.SetClock(clk)
	c.SetHops(func(src, dst int) int { return 3 })

	c.ComputeStart(0, 1)
	c.ComputeEnd(0, 1, ComputeStats{InnerIterations: 5, Residual: 1e-9})
	c.ChunkSent(0, ChunkStats{Dst: 1, Round: 1, Entries: 2, Links: 7})
	clk.t = 20
	c.ComputeStart(1, 1)
	c.ComputeEnd(1, 1, ComputeStats{InnerIterations: 3})
	c.ChunkSent(1, ChunkStats{Dst: 0, Round: 1, Entries: 1, Links: 2})
	c.FaultInjected(1, FaultDrop)
	c.FaultInjected(1, FaultDelay)
	c.FaultInjected(1, FaultDup)
	c.Milestone(Milestone{Time: 20, RelErr: 0.5})

	s := c.Summary()
	if s.Rankers != 2 || s.Rounds != 2 || s.InnerIterations != 8 {
		t.Fatalf("bad totals: %+v", s)
	}
	if s.Chunks != 2 || s.Entries != 3 || s.Links != 9 {
		t.Fatalf("bad chunk totals: %+v", s)
	}
	if s.PayloadBytes != 9*DefaultBytesPerLink {
		t.Fatalf("PayloadBytes = %d", s.PayloadBytes)
	}
	if s.ChunkHops != 6 {
		t.Fatalf("ChunkHops = %d, want 6", s.ChunkHops)
	}
	c.FaultInjected(0, FaultPartition)
	c.FaultInjected(0, FaultStraggle)
	c.FaultInjected(0, FaultStraggle)
	s = c.Summary()
	if s.Faults != [NumFaultKinds]int64{1, 1, 1, 1, 2} {
		t.Fatalf("bad fault totals: %+v", s)
	}
	if s.FirstEvent != 10 || s.LastEvent != 20 {
		t.Fatalf("event window [%v, %v]", s.FirstEvent, s.LastEvent)
	}
	if s.Milestones != 1 || s.LastMilestone.RelErr != 0.5 {
		t.Fatalf("milestones %d, last %+v", s.Milestones, s.LastMilestone)
	}
	if s.PerRanker[0].InnerIterations != 5 || s.PerRanker[1].Rounds != 1 {
		t.Fatalf("per-ranker %+v", s.PerRanker)
	}
	if s.MeanRounds() != 1 || s.MeanChunkHops() != 3 {
		t.Fatalf("means: %v %v", s.MeanRounds(), s.MeanChunkHops())
	}
	if !strings.Contains(s.String(), "2 rankers") || !strings.Contains(s.String(), "faults 1/1/1/1/2") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestCollectorMetricsText(t *testing.T) {
	c := NewCollector(2)
	c.SetClock(&fakeClock{t: 100})
	c.ComputeEnd(0, 1, ComputeStats{InnerIterations: 4, Residual: 1e-8})
	c.ComputeEnd(0, 2, ComputeStats{InnerIterations: 200})
	c.ChunkSent(0, ChunkStats{Dst: 1, Round: 1, Entries: 3, Links: 5})
	c.FaultInjected(1, FaultDrop)
	c.Milestone(Milestone{RelErr: 1e-3, Converged: true})

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`p2prank_rounds_total{ranker="0"} 2`,
		`p2prank_rounds_total{ranker="1"} 0`,
		`p2prank_inner_iterations_total{ranker="0"} 204`,
		`p2prank_chunks_sent_total{ranker="0"} 1`,
		`p2prank_links_sent_total{ranker="0"} 5`,
		`p2prank_chunk_bytes_total{ranker="0"} 500`,
		`p2prank_faults_total{kind="drop"} 1`,
		`p2prank_faults_total{kind="delay"} 0`,
		`p2prank_milestones_total 1`,
		`p2prank_rel_err 1e-03`,
		`p2prank_inner_iterations_bucket{le="4"} 1`,
		`p2prank_inner_iterations_bucket{le="+Inf"} 2`,
		`p2prank_inner_iterations_sum 204`,
		`p2prank_inner_iterations_count 2`,
		"# TYPE p2prank_inner_iterations histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if r := c.Summary().Rounds; r != 2 {
		t.Fatalf("Summary().Rounds = %d", r)
	}
}

func TestCollectorServingMetrics(t *testing.T) {
	c := NewCollector(2)
	c.QueryServed(30e-6, 2)  // below the first bucket
	c.QueryServed(700e-6, 5) // lands in le="0.001"
	c.QueryServed(1.5, 1)    // beyond the last bucket: +Inf only
	c.SnapshotPublished(0, 1, 3)
	c.SnapshotPublished(1, 2, 3)

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`p2prank_queries_total 3`,
		`p2prank_query_latency_seconds_bucket{le="5e-05"} 1`,
		`p2prank_query_latency_seconds_bucket{le="0.001"} 2`,
		`p2prank_query_latency_seconds_bucket{le="0.1"} 2`,
		`p2prank_query_latency_seconds_bucket{le="+Inf"} 3`,
		`p2prank_query_latency_seconds_count 3`,
		`p2prank_served_staleness 1`,
		`p2prank_served_staleness_max 5`,
		`p2prank_snapshot_publishes_total 2`,
		`p2prank_snapshot_version 2`,
		"# TYPE p2prank_query_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if q := c.Summary().Queries; q != 3 {
		t.Fatalf("Summary().Queries = %d", q)
	}
}

func TestCollectorTraceRingWraps(t *testing.T) {
	c := NewCollector(1)
	const n = DefaultTraceCap + 2
	for round := int64(1); round <= n; round++ {
		c.ComputeEnd(0, round, ComputeStats{InnerIterations: 1})
	}
	var buf bytes.Buffer
	if err := c.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var rounds []int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct{ Round int64 }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != DefaultTraceCap || rounds[0] != 3 || rounds[len(rounds)-1] != n {
		t.Fatalf("ring kept %d rounds %d..%d, want %d rounds 3..%d",
			len(rounds), rounds[0], rounds[len(rounds)-1], DefaultTraceCap, n)
	}
}

func TestServeEndpoints(t *testing.T) {
	c := NewCollector(1)
	c.ComputeEnd(0, 1, ComputeStats{InnerIterations: 2})
	s, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, `p2prank_rounds_total{ranker="0"} 1`) {
		t.Fatalf("metrics body:\n%s", out)
	}
	if out := get("/trace"); !strings.Contains(out, `"event":"compute"`) {
		t.Fatalf("trace body:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof cmdline empty")
	}
}

// TestCollectorConcurrentHooks is the merge's contention check (run
// under -race in make race): eight rankers' hook sequences issued from
// eight goroutines leave the collector reporting exactly what the same
// sequences issued one after another do. Latencies are dyadic so their
// float sum is exact in any order; the two last-value readings that
// belong to no ranker (served staleness, last milestone) are written
// once more after the goroutines join, as their serial callers would.
func TestCollectorConcurrentHooks(t *testing.T) {
	const rankers, rounds = 8, 60
	latencies := []float64{1.0 / (1 << 14), 1.0 / (1 << 10), 1.0 / (1 << 4), 2}
	script := func(c *Collector, r int) {
		for round := int64(1); round <= rounds; round++ {
			c.ComputeStart(r, round)
			c.ComputeEnd(r, round, ComputeStats{InnerIterations: int(round) % 9 * (r + 1), Residual: 1 / float64(round+int64(r))})
			c.ChunkSent(r, ChunkStats{Dst: (r + 1) % rankers, Round: round, Entries: r + 1, Links: round})
			c.FaultInjected(r, FaultKind(int(round)%NumFaultKinds))
			c.ChunkRetried(r, (r+2)%rankers, 1)
			c.AckReceived(r, (r+2)%rankers, round)
			c.Milestone(Milestone{RelErr: 0.5})
			c.QueryServed(latencies[(int(round)+r)%len(latencies)], round%7+int64(r))
			c.SnapshotPublished(r, round*rankers+int64(r), round)
		}
		c.Recovered(r, rounds)
	}
	run := func(concurrent bool) (Summary, []byte) {
		c := NewCollector(rankers)
		c.SetClock(&fakeClock{t: 5})
		c.SetHops(func(src, dst int) int { return 1 + (src+dst)%3 })
		var wg sync.WaitGroup
		for r := 0; r < rankers; r++ {
			if !concurrent {
				script(c, r)
				continue
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				script(c, r)
			}(r)
		}
		wg.Wait()
		c.QueryServed(0.25, 2)
		c.Milestone(Milestone{RelErr: 1e-4, Converged: true})
		var buf bytes.Buffer
		if err := c.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return c.Summary(), buf.Bytes()
	}
	wantSum, wantText := run(false)
	if wantSum.Chunks != rankers*rounds || wantSum.Queries != rankers*rounds+1 {
		t.Fatalf("serial run is vacuous: %+v", wantSum)
	}
	gotSum, gotText := run(true)
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Errorf("concurrent summary %+v\nserial summary %+v", gotSum, wantSum)
	}
	if !bytes.Equal(gotText, wantText) {
		t.Errorf("concurrent /metrics differs from serial:\n%s", gotText)
	}
}

// TestNoopIsAllocationFree pins the hot-path contract: hooks through
// the Noop observer must not allocate.
func TestNoopIsAllocationFree(t *testing.T) {
	var obs Observer = Noop{}
	allocs := testing.AllocsPerRun(100, func() {
		obs.ComputeStart(0, 1)
		obs.ComputeEnd(0, 1, ComputeStats{InnerIterations: 3, Residual: 1e-9})
		obs.ChunkSent(0, ChunkStats{Dst: 1, Round: 1, Entries: 2, Links: 5})
		obs.FaultInjected(0, FaultDrop)
	})
	if allocs != 0 {
		t.Fatalf("Noop observer hooks allocate %v per run", allocs)
	}
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{FaultDrop: "drop", FaultDelay: "delay", FaultDup: "dup", FaultPartition: "partition", FaultStraggle: "straggle", FaultKind(9): "unknown"} {
		if k.String() != want {
			t.Fatalf("FaultKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
