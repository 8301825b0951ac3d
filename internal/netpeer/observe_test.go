package netpeer

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/telemetry"
)

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricSum adds up every sample of a counter family across its label
// sets (e.g. the per-ranker rounds_total series).
func metricSum(t *testing.T, body, name string) float64 {
	t.Helper()
	var sum float64
	seen := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		rest := line[len(name):]
		// Accept "name{labels} v" and "name v", not "name_bucket v".
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		sum += v
		seen = true
	}
	if !seen {
		t.Fatalf("metric %s absent from scrape:\n%s", name, body)
	}
	return sum
}

// TestClusterMetricsScrapeMidRun attaches a live collector to a running
// TCP cluster, serves it over HTTP, and scrapes /metrics twice while
// the peers iterate: the round and chunk counters must be exposed in
// Prometheus text format and advance between scrapes.
func TestClusterMetricsScrapeMidRun(t *testing.T) {
	g := genGraph(t, 1500, 3)
	col := telemetry.NewCollector(3)
	srv, err := telemetry.Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := StartCluster(g, ClusterConfig{
		Params:   dprcore.Params{Alg: dprcore.DPR1, Observer: col},
		K:        3,
		MeanWait: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Wait until at least one full round has been recorded, then scrape.
	deadline := time.Now().Add(10 * time.Second)
	for col.Summary().Rounds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no rounds recorded in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	first := scrape(t, srv.URL()+"/metrics")
	rounds1 := metricSum(t, first, "p2prank_rounds_total")
	chunks1 := metricSum(t, first, "p2prank_chunks_sent_total")
	if rounds1 <= 0 {
		t.Fatalf("rounds_total = %v after first round", rounds1)
	}
	// The exposition format contract smoke-tested, not just presence:
	// HELP/TYPE headers and the per-ranker label.
	for _, want := range []string{
		"# TYPE p2prank_rounds_total counter",
		"# TYPE p2prank_residual gauge",
		`p2prank_rounds_total{ranker="0"}`,
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("scrape missing %q:\n%s", want, first)
		}
	}

	// Counters must advance while the loops keep running.
	grew := false
	for i := 0; i < 100 && !grew; i++ {
		time.Sleep(20 * time.Millisecond)
		body := scrape(t, srv.URL()+"/metrics")
		grew = metricSum(t, body, "p2prank_rounds_total") > rounds1 &&
			metricSum(t, body, "p2prank_chunks_sent_total") >= chunks1
	}
	if !grew {
		t.Fatal("p2prank_rounds_total did not advance between scrapes")
	}

	// The trace endpoint serves the JSONL ring.
	trace := scrape(t, srv.URL()+"/trace")
	if !strings.Contains(trace, `"event"`) {
		t.Fatalf("trace endpoint returned no events:\n%.200s", trace)
	}
}
