package workload

import (
	"reflect"
	"testing"
)

func TestPlanIsAFunctionOfItsSeed(t *testing.T) {
	const n, vocab = 2000, 5000
	a, b := NewPlan(7, n, vocab), NewPlan(7, n, vocab)
	if !reflect.DeepEqual(a.Reqs, b.Reqs) {
		t.Fatal("two plans from one seed differ")
	}
	if reflect.DeepEqual(a.Reqs, NewPlan(8, n, vocab).Reqs) {
		t.Fatal("plans from different seeds are equal")
	}
}

func TestPlanFollowsItsLaw(t *testing.T) {
	const n, vocab = 5000, 5000
	p := NewPlan(1, n, vocab)
	if len(p.Reqs) != n {
		t.Fatalf("%d queries, want %d", len(p.Reqs), n)
	}
	low := 0
	for i, req := range p.Reqs {
		if len(req.Terms) < 1 || len(req.Terms) > 3 || req.K != 10 {
			t.Fatalf("query %d: %d terms, k=%d", i, len(req.Terms), req.K)
		}
		if err := req.Validate(vocab); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		seen := map[int32]bool{}
		for _, term := range req.Terms {
			if seen[term] {
				t.Fatalf("query %d repeats term %d", i, term)
			}
			seen[term] = true
		}
		if req.Terms[0] < vocab/16 {
			low++
		}
	}
	// id = ⌊u⁴·V⌋ puts half of all draws in the lowest sixteenth.
	if low < n*4/10 || low > n*6/10 {
		t.Fatalf("%d of %d first terms in the lowest sixteenth of the vocabulary, want about half", low, n)
	}
}
