package serve

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
)

// buildInputs is a crawl hashed by page over k rankers — every shard
// small, the shape of the 1000-shard serving tier.
func buildInputs(t testing.TB, pages, k int) (*webgraph.Graph, *pastry.Overlay, *partition.Assignment, *Store) {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 3
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids, pastry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.ByPage, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(k)
	if err != nil {
		t.Fatal(err)
	}
	return g, ov, assign, store
}

// The parallel, exact-sized build against the definition: shard s
// lists local page i under term t iff TermsOf says page Pages[s][i]
// contains t, ascending; termShards lists exactly the shards with a
// non-empty list. Checked at GOMAXPROCS 1 and 8, which must also
// agree with each other to the last slice.
func TestFrontendBuildMatchesDefinition(t *testing.T) {
	g, ov, assign, store := buildInputs(t, 3000, 40)
	text := search.Config{Vocabulary: 300, TermsPerPage: 7, Skew: 0.9}

	wantLocals := make([]map[int32][]int32, assign.K)
	wantShards := make([][]int32, text.Vocabulary)
	for s := range wantLocals {
		wantLocals[s] = map[int32][]int32{}
		for local, p := range assign.Pages[s] {
			terms, err := search.TermsOf(g, p, text)
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range terms {
				wantLocals[s][tm] = append(wantLocals[s][tm], int32(local))
			}
		}
		for tm := int32(0); tm < int32(text.Vocabulary); tm++ {
			if len(wantLocals[s][tm]) > 0 {
				wantShards[tm] = append(wantShards[tm], int32(s))
			}
		}
	}

	var builds []*Frontend
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		fe, err := NewFrontend(g, ov, assign, store, Config{Text: text})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, fe)
		for s := range fe.shards {
			sh := &fe.shards[s]
			if len(sh.off) != len(sh.terms)+1 || len(sh.terms) != len(wantLocals[s]) {
				t.Fatalf("procs %d shard %d: %d terms, %d offsets, want %d terms",
					procs, s, len(sh.terms), len(sh.off), len(wantLocals[s]))
			}
			if len(sh.locals) != cap(sh.locals) || len(sh.terms) != cap(sh.terms) {
				t.Fatalf("procs %d shard %d: slices not exact-sized", procs, s)
			}
			for tm := int32(0); tm < int32(text.Vocabulary); tm++ {
				if got := sh.postingsOf(tm); !slices.Equal(got, wantLocals[s][tm]) {
					t.Fatalf("procs %d shard %d term %d: locals %v, want %v", procs, s, tm, got, wantLocals[s][tm])
				}
			}
		}
		for tm, want := range wantShards {
			if !slices.Equal(fe.termShards[tm], want) {
				t.Fatalf("procs %d term %d: shards %v, want %v", procs, tm, fe.termShards[tm], want)
			}
		}
	}
	if !reflect.DeepEqual(builds[0].shards, builds[1].shards) ||
		!reflect.DeepEqual(builds[0].termShards, builds[1].termShards) {
		t.Fatal("NewFrontend differs between GOMAXPROCS 1 and 8")
	}
}

func TestFrontendTextModelValidation(t *testing.T) {
	g, ov, assign, store := buildInputs(t, 300, 4)
	steep := search.Config{Vocabulary: 5000, TermsPerPage: 12, Skew: 50}
	if _, err := NewFrontend(g, ov, assign, store, Config{Text: steep}); !errors.Is(err, search.ErrTooFewTerms) {
		t.Errorf("steep skew: %v, want ErrTooFewTerms", err)
	}
	tm, err := search.DrawTerms(g, search.Config{Vocabulary: 400})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFrontendFrom(tm, ov, assign, store, Config{}); err == nil {
		t.Error("frontend accepted a term matrix drawn from another text model")
	}
	if _, err := NewFrontendFrom(tm, ov, assign, store, Config{Text: search.Config{Vocabulary: 400}}); err != nil {
		t.Errorf("matching text model rejected: %v", err)
	}
}

// BenchmarkFrontendBuild is the ratchet kernel for a tier build at the
// benchmark's size: 20,000 pages hashed by page over 1000 shards, text
// drawn and both passes of every shard's CSR included. allocs/op is
// the gate: it is what append-doubling builds would multiply.
func BenchmarkFrontendBuild(b *testing.B) {
	g, ov, assign, store := buildInputs(b, 20000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFrontend(g, ov, assign, store, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
