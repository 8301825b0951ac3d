package search

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"p2prank/internal/nodeid"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// referenceTermsOf is the draw as it was before the text model was
// compiled once: a private Zipf table per page, a map for the distinct
// check, a sort at the end. It is the definition the compiled draw
// must reproduce term for term. cfg must be valid.
func referenceTermsOf(g *webgraph.Graph, p int32, cfg Config) []int32 {
	id := nodeid.Hash(g.URL(p))
	rng := xrand.New(id.Lo ^ id.Hi)
	z := xrand.NewZipf(rng, cfg.Vocabulary, cfg.Skew)
	seen := make(map[int32]bool, cfg.TermsPerPage)
	out := make([]int32, 0, cfg.TermsPerPage)
	for len(out) < cfg.TermsPerPage {
		t := int32(z.Sample())
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// crawl generates the tests' deterministic crawl.
func crawl(t testing.TB, pages int) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 3
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDrawMatchesReference(t *testing.T) {
	g := crawl(t, 2000)
	for _, cfg := range []Config{
		DefaultConfig(),
		{Vocabulary: 300, TermsPerPage: 6, Skew: 0},        // zero Skew: filled in as 1.0
		{Vocabulary: 5000, TermsPerPage: 12, Skew: 1e-300}, // flat
		{Vocabulary: 40, TermsPerPage: 25, Skew: 1.3},      // most draws are repeats
	} {
		tm, err := DrawTerms(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := cfg.WithDefaults()
		if err != nil {
			t.Fatal(err)
		}
		for p := int32(0); p < int32(g.NumPages()); p++ {
			want := referenceTermsOf(g, p, full)
			got, err := TermsOf(g, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%+v page %d: TermsOf %v, reference %v", cfg, p, got, want)
			}
			if !slices.Equal(tm.Row(p), want) {
				t.Fatalf("%+v page %d: matrix row %v, reference %v", cfg, p, tm.Row(p), want)
			}
		}
	}
}

// The table memo is bounded; walking more text models than it holds
// must still hand every one its own table.
func TestDrawAcrossMoreModelsThanMemoized(t *testing.T) {
	g := crawl(t, 50)
	for round := 0; round < 2; round++ {
		for v := 20; v < 20+2*maxTables; v++ {
			cfg := Config{Vocabulary: v, TermsPerPage: 5, Skew: 0.7}
			got, err := TermsOf(g, 7, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceTermsOf(g, 7, cfg); !slices.Equal(got, want) {
				t.Fatalf("vocabulary %d: TermsOf %v, reference %v", v, got, want)
			}
		}
	}
}

func TestAppendTermsNoAlloc(t *testing.T) {
	g := crawl(t, 500)
	m, err := compile(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 0, m.cfg.TermsPerPage)
	p := int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		dst = m.appendTerms(dst[:0], g, p)
		p = (p + 1) % int32(g.NumPages())
	})
	if allocs != 0 {
		t.Fatalf("appendTerms with dst supplied allocates %.1f times per page, want 0", allocs)
	}
}

// A skew so steep that the float64 CDF saturates after two terms used
// to spin TermsOf's rejection loop forever. Every entry point must
// refuse the model instead; the watchdog turns a relapse into a
// failure rather than a hung test binary.
func TestSteepSkewRejected(t *testing.T) {
	f := newFixture(t, 300, 4)
	steep := Config{Vocabulary: 5000, TermsPerPage: 12, Skew: 50}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := steep.WithDefaults(); !errors.Is(err, ErrTooFewTerms) {
			t.Errorf("WithDefaults: %v, want ErrTooFewTerms", err)
		}
		if _, err := TermsOf(f.g, 0, steep); !errors.Is(err, ErrTooFewTerms) {
			t.Errorf("TermsOf: %v, want ErrTooFewTerms", err)
		}
		if _, err := DrawTerms(f.g, steep); !errors.Is(err, ErrTooFewTerms) {
			t.Errorf("DrawTerms: %v, want ErrTooFewTerms", err)
		}
		if _, err := Build(f.g, f.ranks, f.ov, f.assign, steep); !errors.Is(err, ErrTooFewTerms) {
			t.Errorf("Build: %v, want ErrTooFewTerms", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("steep-skew text model still spinning after 3 s")
	}
}

func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	f := newFixture(t, 3000, 8)
	var builds []*Index
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		ix, err := Build(f.g, f.ranks, f.ov, f.assign, DefaultConfig())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, ix)
	}
	a, b := builds[0], builds[1]
	if !reflect.DeepEqual(a.postings, b.postings) || !slices.Equal(a.termOwner, b.termOwner) ||
		a.PostingsMoved != b.PostingsMoved || a.PostingsTotal != b.PostingsTotal {
		t.Fatal("Build differs between GOMAXPROCS 1 and 8")
	}
	if a.PostingsTotal != int64(f.g.NumPages()*a.cfg.TermsPerPage) {
		t.Fatalf("PostingsTotal %d, want pages × terms-per-page", a.PostingsTotal)
	}
}

// BenchmarkTermsOf is the ratchet kernel for the text model: one
// page's draw into a supplied row. Gated at 0 allocs/op.
func BenchmarkTermsOf(b *testing.B) {
	g := crawl(b, 2000)
	m, err := compile(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int32, 0, m.cfg.TermsPerPage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.appendTerms(dst[:0], g, int32(i%g.NumPages()))
	}
}
