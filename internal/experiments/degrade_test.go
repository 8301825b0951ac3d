package experiments

import (
	"strings"
	"testing"

	"p2prank/internal/metrics"
)

// runDegradeBench drives a bench's whole storm the way dprsim does, on
// a clock that never advances.
func runDegradeBench(t *testing.T, part, strag float64) DegradeRow {
	t.Helper()
	const k, queries = 32, 800
	b, err := newDegradeBench(ScaleWorkload(k, 7), k, queries, part, strag)
	if err != nil {
		t.Fatal(err)
	}
	row, err := b.Run(frozenClock{}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func TestDegradeBenchFaultFreeControl(t *testing.T) {
	row := runDegradeBench(t, 0, 0)
	if row.Shed != 0 || row.Unavailable != 0 || row.Degraded != 0 || row.Hedged != 0 {
		t.Fatalf("fault-free row not clean: %+v", row)
	}
	if row.Answered != row.Queries {
		t.Fatalf("answered %d of %d with no faults", row.Answered, row.Queries)
	}
	if row.RecoveryQueries != 0 {
		t.Fatalf("RecoveryQueries = %d, want immediate full coverage", row.RecoveryQueries)
	}
}

func TestDegradeBenchPartitionDegradesShedsRecovers(t *testing.T) {
	row := runDegradeBench(t, 0.3, 0)
	if row.Degraded == 0 {
		t.Fatal("30% partition produced no partial-coverage answers")
	}
	if row.MeanCoverage <= 0 || row.MeanCoverage >= 1 {
		t.Fatalf("MeanCoverage = %v, want a real fraction", row.MeanCoverage)
	}
	if row.RankErr <= 0 || row.RankErr >= 1 {
		t.Fatalf("RankErr = %v, want a real recall loss", row.RankErr)
	}
	if row.Shed == 0 {
		t.Fatal("staleness past the bound shed nothing")
	}
	if row.RecoveryQueries <= 0 {
		t.Fatalf("RecoveryQueries = %d, want a measurable publish catch-up", row.RecoveryQueries)
	}
	if got := row.Answered + row.Shed + row.Unavailable; got != row.Queries {
		t.Fatalf("outcomes %d do not partition the %d-query storm", got, row.Queries)
	}
}

func TestDegradeBenchStragglersHedge(t *testing.T) {
	row := runDegradeBench(t, 0, 0.25)
	if row.Hedged == 0 {
		t.Fatal("straggling shards never hedged to the replica")
	}
	if row.Shed != 0 || row.Degraded != 0 {
		t.Fatalf("stragglers alone must not shed or degrade: %+v", row)
	}
}

func TestDegradeBenchDeterministic(t *testing.T) {
	a := runDegradeBench(t, 0.3, 0.25)
	b := runDegradeBench(t, 0.3, 0.25)
	if a != b {
		t.Fatalf("degrade rows differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestDegradeTable(t *testing.T) {
	out := metrics.TableOf([]DegradeRow{runDegradeBench(t, 0.3, 0.25)}).String()
	for _, col := range []string{"part", "shed", "coverage", "rank err", "recovery"} {
		if !strings.Contains(out, col) {
			t.Fatalf("rendered table missing %q column:\n%s", col, out)
		}
	}
}

func TestDegradeBenchValidation(t *testing.T) {
	e, _ := Lookup("degrade")
	p := toyParams("degrade")
	p.K, p.Queries = 8, 16
	if _, err := e.Run(p); err == nil {
		t.Fatal("accepted a storm too short for the schedule")
	}
}
