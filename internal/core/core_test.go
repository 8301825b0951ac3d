package core

import "testing"

func TestGenerateAndRankCentralized(t *testing.T) {
	g, err := GenerateCrawl(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := RankCentralized(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumPages() {
		t.Fatalf("rank vector length %d", len(ranks))
	}
	if ranks.Min() <= 0 {
		t.Fatal("non-positive rank")
	}
}

func TestRankDistributedEndToEnd(t *testing.T) {
	g, err := GenerateCrawl(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RankDistributed(Config{
		Params: Params{Alg: DPR1, T1: 0.5, T2: 3},
		Graph:  g, K: 6, MaxTime: 400, TargetRelErr: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge (rel err %v)", res.RelErr)
	}
	if re := RelativeError(res.Final, res.Reference); re > 1e-6 {
		t.Fatalf("relative error %v", re)
	}
}

func TestTopPages(t *testing.T) {
	ranks := []float64{0.1, 0.9, 0.5, 0.9}
	top := TopPages(ranks, 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("top = %v, want [1 3 2] (ties toward smaller index)", top)
	}
	if got := TopPages(ranks, 99); len(got) != 4 {
		t.Fatalf("oversized n returned %d entries", len(got))
	}
	if got := TopPages(nil, 3); len(got) != 0 {
		t.Fatalf("empty ranks returned %v", got)
	}
}
