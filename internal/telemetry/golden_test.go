package telemetry

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// scriptedRun drives every hook once or more through c on a scripted
// clock: the sequence the metrics and trace goldens were recorded from.
func scriptedRun(c *Collector) {
	clk := &fakeClock{t: 100}
	c.SetClock(clk)
	c.SetHops(func(src, dst int) int { return src + dst + 2 })

	c.ComputeStart(0, 1)
	c.ComputeEnd(0, 1, ComputeStats{InnerIterations: 4, Residual: 1e-8})
	clk.t = 101
	c.ComputeEnd(1, 1, ComputeStats{InnerIterations: 200, Residual: 2.5e-3}) // past the last bucket
	c.ChunkSent(0, ChunkStats{Dst: 1, Round: 1, Entries: 3, Links: 5})
	clk.t = 102.5
	c.ChunkSent(2, ChunkStats{Dst: 0, Round: 7, Entries: 6, Links: 11})
	for k := FaultKind(0); k < NumFaultKinds; k++ {
		c.FaultInjected(int(k)%3, k)
	}
	c.FaultInjected(1, FaultDrop)
	clk.t = 104
	c.ChunkRetried(2, 0, 1)
	c.ChunkRetried(0, 1, 2)
	c.AckReceived(2, 0, 7)
	c.AckReceived(0, 2, 1)
	c.Recovered(1, 3)
	c.Milestone(Milestone{Time: 4, RelErr: 0.25, MeanLoops: 1})
	clk.t = 110
	c.ComputeEnd(0, 2, ComputeStats{InnerIterations: 16, Residual: 3e-9})
	c.Milestone(Milestone{Time: 10, RelErr: 1e-3, MeanLoops: 1.5, Converged: true})
	c.QueryServed(30e-6, 2)  // below the first bucket
	c.QueryServed(700e-6, 5) // inside: le="0.001"
	c.QueryServed(1.5, 1)    // above the last bucket
	c.SnapshotPublished(0, 1, 3)
	clk.t = 111
	c.SnapshotPublished(1, 2, 3)
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from this run's output:\n%s", path, got)
	}
}

// TestMetricsBytesPinned holds /metrics to its recorded bytes: families,
// order, labels, number formats. The golden's first twenty families
// were recorded from the live exporter this type replaced.
func TestMetricsBytesPinned(t *testing.T) {
	c := NewCollector(3)
	scriptedRun(c)
	c.SetServing(func() ServingStats {
		return ServingStats{Shed: 1, Hedged: 2, Degraded: 3, CacheHits: 4, CacheMisses: 5, CacheEvictions: 6, CacheEntries: 7}
	})
	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/metrics.golden", buf.Bytes())
}

// TestTraceBytesPinned holds /trace to its recorded JSONL: a chunk,
// retry or ack addressed to ranker 0 carries "dst":0, and a retry's
// attempt number has its own key.
func TestTraceBytesPinned(t *testing.T) {
	c := NewCollector(3)
	scriptedRun(c)
	var buf bytes.Buffer
	if err := c.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/trace.golden", buf.Bytes())
}
