package experiments

import (
	"strings"
	"testing"

	"p2prank/internal/metrics"
)

func TestServeBenchDeterministicAndServable(t *testing.T) {
	w := ScaleWorkload(16, 7)
	b, err := newServeBench(w, 16, 200)
	if err != nil {
		t.Fatal(err)
	}
	if b.K != 16 || b.Pages != 320 {
		t.Fatalf("bench sized K=%d pages=%d", b.K, b.Pages)
	}
	if len(b.queries) != 200 {
		t.Fatalf("got %d queries", len(b.queries))
	}
	for i, q := range b.queries {
		if len(q.Terms) < 1 || len(q.Terms) > 3 {
			t.Fatalf("query %d has %d terms", i, len(q.Terms))
		}
	}

	// Same seed, same workload: the query plan must be identical.
	b2, err := newServeBench(w, 16, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.queries {
		a, c := b.queries[i], b2.queries[i]
		if len(a.Terms) != len(c.Terms) {
			t.Fatalf("query %d nondeterministic", i)
		}
		for j := range a.Terms {
			if a.Terms[j] != c.Terms[j] {
				t.Fatalf("query %d term %d: %d vs %d", i, j, a.Terms[j], c.Terms[j])
			}
		}
	}

	// Staleness machinery: three ticks then a republish.
	b.Tick()
	b.Tick()
	b.Tick()
	if s := b.store.MaxStaleness(); s != 3 {
		t.Fatalf("staleness after 3 ticks = %d", s)
	}
	v := b.store.Version()
	if err := b.Republish(); err != nil {
		t.Fatal(err)
	}
	if s := b.store.MaxStaleness(); s != 0 {
		t.Fatalf("staleness after republish = %d", s)
	}
	if nv := b.store.Version(); nv != v+16 {
		t.Fatalf("republish minted %d versions, want 16", nv-v)
	}

	// Run the storm the way dprsim does, on a clock that never advances.
	row, err := b.Run(frozenClock{}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if row.Queries != 200 || row.Results == 0 || row.MeanShards <= 0 {
		t.Fatalf("row not folded: %+v", row)
	}
	if row.MaxStaleness != 4 {
		t.Fatalf("max staleness %d, want the 4 ticks before the mid-storm republish", row.MaxStaleness)
	}
	out := metrics.TableOf([]ServeRow{row}).String()
	for _, want := range []string{"hit rate", "shards/q", "max stale", "p99", "16"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestServeBenchValidation(t *testing.T) {
	e, _ := Lookup("serve")
	p := toyParams("serve")
	p.Ks = []int{0}
	if _, err := e.Run(p); err == nil {
		t.Fatal("k=0 accepted")
	}
	p = toyParams("serve")
	p.Queries = 0
	if _, err := e.Run(p); err == nil {
		t.Fatal("queries=0 accepted")
	}
}
