package clitest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeChaosPartitionDprnode is the serve-under-partition half of
// `make chaos`: boot a demo cluster with the query tier on and a 40%
// network partition injected for the first 8 seconds, and require the
// frontend to keep answering 200s through the cut — degraded, with the
// lost shard reported as coverage < 1 and counted on /metrics — then to
// recover full coverage once the partition heals.
func TestServeChaosPartitionDprnode(t *testing.T) {
	cmd := exec.Command(filepath.Join(builtDir, "dprnode"),
		"-demo", "-pages", "2500", "-k", "4", "-target", "1e-18",
		"-serve", "127.0.0.1:0", "-topk", "5", "-obs", "127.0.0.1:0",
		"-fault", "partition=0.4,pfrom=0,pto=8000")
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

	var serveBase, obsBase string
	deadline := time.Now().Add(15 * time.Second)
	for serveBase == "" || obsBase == "" {
		if m := serveURLRx.FindStringSubmatch(sb.String()); m != nil {
			serveBase = m[1]
		}
		if m := obsURLRx.FindStringSubmatch(sb.String()); m != nil {
			obsBase = m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("query tier never announced:\n%s", sb.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	var body struct {
		Version  int64   `json:"version"`
		Coverage float64 `json:"coverage"`
		Degraded bool    `json:"degraded"`
		Postings []struct {
			Page int32 `json:"page"`
		} `json:"postings"`
	}
	// Phase 1, partition up: a popular term plans every shard, so the
	// cut-off one must surface as a degraded 200, never an error.
	deadline = time.Now().Add(7 * time.Second)
	sawDegraded := false
	for !sawDegraded {
		raw, status := get(t, serveBase+"/search?terms=0&k=5")
		switch status {
		case 200:
			if err := json.Unmarshal([]byte(raw), &body); err != nil {
				t.Fatalf("bad /search JSON: %v\n%s", err, raw)
			}
			if body.Degraded {
				if body.Coverage <= 0 || body.Coverage >= 1 {
					t.Fatalf("degraded answer with coverage %v, want a real fraction:\n%s", body.Coverage, raw)
				}
				if len(body.Postings) == 0 {
					t.Fatalf("degraded answer carried no postings:\n%s", raw)
				}
				sawDegraded = true
			}
		case 503:
			// Before the first publish the store is stale by definition.
		default:
			t.Fatalf("mid-partition /search status %d:\n%s", status, raw)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no degraded answer before the heal; last: %d\n%s", status, raw)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// What the client saw, the scrape counts.
	if metrics := obsScrape(t, obsBase, "/metrics"); strings.Contains(metrics, "p2prank_degraded_answers_total 0\n") &&
		strings.Contains(metrics, "p2prank_hedged_reads_total 0\n") {
		t.Fatalf("degraded answers served, none counted on /metrics:\n%s", metrics)
	}

	// Phase 2, healed: the same query must climb back to full coverage.
	deadline = time.Now().Add(15 * time.Second)
	for {
		raw, status := get(t, serveBase+"/search?terms=0&k=5")
		if status == 200 {
			if err := json.Unmarshal([]byte(raw), &body); err != nil {
				t.Fatalf("bad /search JSON: %v\n%s", err, raw)
			}
			if !body.Degraded && body.Coverage == 1 && len(body.Postings) > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coverage never recovered after the heal; last: %d\n%s", status, raw)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
