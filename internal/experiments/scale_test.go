package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"p2prank/internal/metrics"
	"p2prank/internal/webgraph"
)

// TestScaleSmoke runs one decade of the scale experiment (N = 10⁴,
// bounded virtual-time horizon) end to end: the event queue's delivery
// lane, batched delivery, sparse transport outbox, and the bwmodel
// validation table. It takes on the order of a minute, so it is opt-in:
//
//	P2PRANK_SCALE=1 go test ./internal/experiments -run TestScaleSmoke -v -timeout 20m
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("P2PRANK_SCALE") == "" {
		t.Skip("set P2PRANK_SCALE=1 to run the 10⁴-ranker scale smoke")
	}
	p := toyParams("scale")
	p.Workload, p.Ks = Workload{Seed: 1}, []int{10_000}
	// Run off the mapped file, as `dprsim -exp scale` does by default:
	// generate once, write the mapped format, and rank the mmapped file
	// so the graph never sits on this process's heap.
	p.Meter.OnDisk = func(w Workload) (*webgraph.Graph, func(), error) {
		path := filepath.Join(t.TempDir(), "scale.bin")
		g, err := w.Generate()
		if err != nil {
			return nil, nil, err
		}
		if err := webgraph.WriteMappedFile(path, g); err != nil {
			return nil, nil, err
		}
		m, err := webgraph.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		return m, func() { m.Close() }, nil
	}
	rows := run(t, "scale", p).Rows.([]*ScaleRow)
	for _, row := range rows {
		t.Logf("%v K=%d pages=%d rounds=%.1f relerr=%.3g events=%d msgs=%d bytes=%d",
			row.Alg, row.K, row.Pages, row.MeanRounds, row.RelErr, row.Events, row.Messages, row.Bytes)
		if row.MeanRounds < 2 {
			t.Fatalf("rankers barely iterated: %.2f mean rounds", row.MeanRounds)
		}
		if row.Events == 0 || row.Messages == 0 {
			t.Fatalf("vacuous run: %+v", row)
		}
		if row.RelErr <= 0 || row.RelErr >= 1 {
			t.Fatalf("relative error %v outside (0, 1) after the default horizon", row.RelErr)
		}
		// The validation table must exist and be sane: every measured
		// value within an order of magnitude of its prediction (the model
		// is asymptotic; ratios near 1 are the expected regime, 10× would
		// mean the accounting is wired to the wrong counter).
		if len(row.Validation) == 0 {
			t.Fatal("no validation rows")
		}
		for _, v := range row.Validation {
			r := v.Ratio()
			if !(r > 0.1 && r < 10) {
				t.Errorf("%s: measured/predicted = %.3f (predicted %g, measured %g)",
					v.Quantity, r, v.Predicted, v.Measured)
			}
		}
	}
	t.Logf("\n%s", metrics.TableOf(rows))
}
