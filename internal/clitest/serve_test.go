package clitest

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var serveURLRx = regexp.MustCompile(`serving: (http://[^/\s]+)`)

// TestServeSmokeDprnode is part of `make serve-smoke`: boot a demo
// cluster with the query tier and internal load generator on, hit
// /search over HTTP while it ranks, and check the query metrics land
// on the same /metrics endpoint obs-smoke scrapes.
func TestServeSmokeDprnode(t *testing.T) {
	// The target is unreachable on purpose: a 3-ranker demo reaches 1e-9
	// in ~0.3 s and exits, taking the servers down under the checks
	// below; this one ranks until the test stops it.
	cmd := exec.Command(filepath.Join(builtDir, "dprnode"),
		"-demo", "-pages", "2500", "-k", "3", "-target", "1e-18",
		"-serve", "127.0.0.1:0", "-qps", "50", "-topk", "5",
		"-obs", "127.0.0.1:0")
	sb := &syncBuf{}
	cmd.Stdout = sb
	cmd.Stderr = sb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()

	// Both servers announce their URLs before ranking starts.
	var serveBase, obsBase string
	deadline := time.Now().Add(15 * time.Second)
	for serveBase == "" || obsBase == "" {
		out := sb.String()
		if m := serveURLRx.FindStringSubmatch(out); m != nil {
			serveBase = m[1]
		}
		if m := obsURLRx.FindStringSubmatch(out); m != nil {
			obsBase = m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("servers never announced:\n%s", out)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Query until the first snapshots are published (503 until then).
	var body struct {
		Version   int64 `json:"version"`
		Staleness int64 `json:"staleness"`
		Postings  []struct {
			Page  int32   `json:"page"`
			Score float64 `json:"score"`
		} `json:"postings"`
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		raw, status := get(t, serveBase+"/search?terms=0&k=3")
		if status == 200 {
			if err := json.Unmarshal([]byte(raw), &body); err != nil {
				t.Fatalf("bad /search JSON: %v\n%s", err, raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/search never turned 200 (last status %d)", status)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if body.Version < 1 || len(body.Postings) == 0 {
		t.Fatalf("served version %d with %d postings", body.Version, len(body.Postings))
	}
	for i := 1; i < len(body.Postings); i++ {
		if body.Postings[i].Score > body.Postings[i-1].Score {
			t.Fatalf("postings out of rank order: %+v", body.Postings)
		}
	}
	if _, status := get(t, serveBase+"/search?terms=0&minv=99999999"); status != 503 {
		t.Fatalf("unreachable MinVersion got status %d, want 503", status)
	}
	if _, status := get(t, serveBase+"/search?terms=bogus"); status != 400 {
		t.Fatalf("malformed terms got status %d, want 400", status)
	}

	// The collector sees the queries: ours plus the -qps load gen.
	deadline = time.Now().Add(15 * time.Second)
	for {
		metrics := obsScrape(t, obsBase, "/metrics")
		if strings.Contains(metrics, "# TYPE p2prank_query_latency_seconds histogram") &&
			strings.Contains(metrics, "p2prank_snapshot_publishes_total") &&
			!strings.Contains(metrics, "p2prank_queries_total 0\n") {
			// The tier's own counters are pulled into the same scrape;
			// the load generator repeats four queries, so lookups miss.
			for _, family := range []string{"queries_shed_total", "hedged_reads_total",
				"degraded_answers_total", "query_cache_hits_total", "query_cache_misses_total",
				"query_cache_evictions_total"} {
				if !strings.Contains(metrics, "# TYPE p2prank_"+family+" counter") {
					t.Fatalf("%s absent from /metrics:\n%s", family, metrics)
				}
			}
			if strings.Contains(metrics, "p2prank_query_cache_misses_total 0\n") ||
				!strings.Contains(metrics, "# TYPE p2prank_query_cache_entries gauge") ||
				strings.Contains(metrics, "p2prank_query_cache_entries 0\n") {
				t.Fatalf("cache counters not wired to the frontend:\n%s", metrics)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query metrics never landed:\n%.600s", metrics)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

var servedRx = regexp.MustCompile(`served (\d+) load-gen queries, max served staleness (\d+) rounds`)

// TestServeSmokeDprnodeFreshness runs a short demo to convergence with
// the query tier and load generator on. The peers publish through the
// checkpoint seam every 2 rounds, so the load generator is answered
// from the first rounds on, and no shard was ever served more than
// 2·2−1 = 3 rounds stale (the closing line's high-water mark).
func TestServeSmokeDprnodeFreshness(t *testing.T) {
	out := run(t, "dprnode", "-demo", "-pages", "2500", "-k", "3", "-target", "1e-9",
		"-serve", "127.0.0.1:0", "-qps", "200")
	m := servedRx.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no serving summary line:\n%s", out)
	}
	answered, _ := strconv.Atoi(m[1])
	stale, _ := strconv.Atoi(m[2])
	if answered == 0 || stale > 3 {
		t.Fatalf("answered %d load-gen queries with max served staleness %d, want > 0 and ≤ 3:\n%s", answered, stale, out)
	}
}

// get fetches a URL, tolerating non-200 statuses (unlike obsScrape).
func get(t *testing.T, url string) (body string, status int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), resp.StatusCode
}

// TestServeSmokeDprsim is the last part of `make serve-smoke`: the
// deterministic serving sweep at a toy scale must report the QPS,
// latency percentile, and staleness columns.
func TestServeSmokeDprsim(t *testing.T) {
	out := run(t, "dprsim", "-exp", "serve", "-ks", "32", "-queries", "400", "-topk", "5")
	for _, want := range []string{"Serving tier", "hit rate", "max stale", "QPS", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if !regexp.MustCompile(`\n32\s+640\s+400\s+`).MatchString(out) {
		t.Fatalf("row for K=32/pages=640/queries=400 missing:\n%s", out)
	}
}
