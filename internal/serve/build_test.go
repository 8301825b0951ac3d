package serve

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
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
	ov, err := pastry.New(ids)
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

// The term-major index against the definition: term t has an entry
// for shard s iff TermsOf puts t on one of the shard's pages, the
// entry's blocks ascend strictly by blk with nonzero masks whose bits
// are exactly those pages, its signature is the OR of its masks, each
// term's shards are strictly ascending, and postOff is monotone and
// ends at len(blocks), at most one block per posting. Checked at
// GOMAXPROCS 1 and 8, which must also agree with each other to the last
// slice.
func TestFrontendBuildMatchesDefinition(t *testing.T) {
	g, ov, assign, store := buildInputs(t, 3000, 40)
	text := search.Config{Vocabulary: 300, TermsPerPage: 7}

	// want[t][s] lists the local indices of shard s's pages holding t.
	want := make([]map[int32][]int32, text.Vocabulary)
	for tm := range want {
		want[tm] = map[int32][]int32{}
	}
	for s, pages := range assign.Pages {
		for local, p := range pages {
			terms, err := search.TermsOf(g, p, text)
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range terms {
				want[tm][int32(s)] = append(want[tm][int32(s)], int32(local))
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
		if len(fe.termOff) != text.Vocabulary+1 || fe.termOff[0] != 0 ||
			int(fe.termOff[text.Vocabulary]) != len(fe.fanShards) || len(fe.postOff) != len(fe.fanShards)+1 {
			t.Fatalf("procs %d: %d term offsets ending at %d, %d entries, %d posting offsets",
				procs, len(fe.termOff), fe.termOff[text.Vocabulary], len(fe.fanShards), len(fe.postOff))
		}
		if fe.postOff[0] != 0 || int(fe.postOff[len(fe.fanShards)]) != len(fe.blocks) ||
			len(fe.blocks) > g.NumPages()*text.TermsPerPage {
			t.Fatalf("procs %d: block offsets run %d..%d over %d blocks, want 0..len ≤ %d",
				procs, fe.postOff[0], fe.postOff[len(fe.fanShards)], len(fe.blocks), g.NumPages()*text.TermsPerPage)
		}
		if !slices.IsSorted(fe.postOff) {
			t.Fatalf("procs %d: postOff not monotone", procs)
		}
		multi := 0 // entries spanning more than one block
		for tm := range want {
			lo, hi := fe.termOff[tm], fe.termOff[tm+1]
			if int(hi-lo) != len(want[tm]) {
				t.Fatalf("procs %d term %d: %d entries, want %d", procs, tm, hi-lo, len(want[tm]))
			}
			for j := lo; j < hi; j++ {
				s := fe.fanShards[j]
				if j > lo && s <= fe.fanShards[j-1] {
					t.Fatalf("procs %d term %d: shards %v not strictly ascending", procs, tm, fe.fanShards[lo:hi])
				}
				// An entry per wanted shard, all distinct, as many as
				// wanted: exactly the wanted shards. Its blocks ascend
				// strictly, none is empty, and their bits spell out
				// exactly the wanted pages.
				blocks := fe.blocks[fe.postOff[j]:fe.postOff[j+1]]
				if len(blocks) == 0 {
					t.Fatalf("procs %d term %d shard %d: no blocks", procs, tm, s)
				}
				if len(blocks) > 1 {
					multi++
				}
				var got []int32
				ors := uint32(0)
				for i, b := range blocks {
					if b.mask == 0 || (i > 0 && b.blk <= blocks[i-1].blk) {
						t.Fatalf("procs %d term %d shard %d: blocks %+v not strictly ascending and nonempty", procs, tm, s, blocks)
					}
					for bit := int32(0); bit < 32; bit++ {
						if b.mask>>bit&1 == 1 {
							got = append(got, b.blk*32+bit)
						}
					}
					ors |= b.mask
				}
				if !slices.Equal(got, want[tm][s]) {
					t.Fatalf("procs %d term %d shard %d: blocks hold %v, want %v", procs, tm, s, got, want[tm][s])
				}
				if fe.sig[j] != ors {
					t.Fatalf("procs %d term %d shard %d: signature %#x, masks OR to %#x", procs, tm, s, fe.sig[j], ors)
				}
			}
			// A dense term's bitmap holds exactly its shards, and rank plus
			// popcount finds each one's entry.
			if at := fe.dense[tm]; (at >= 0) != denseTerm(hi-lo, len(assign.Pages)) {
				t.Fatalf("procs %d term %d: %d entries, bitmap slot %d", procs, tm, hi-lo, at)
			} else if at >= 0 {
				words := fe.bits[at : at+fe.words]
				for s := int32(0); s < int32(len(assign.Pages)); s++ {
					j, held := slices.BinarySearch(fe.fanShards[lo:hi], s)
					if set := words[s/64]>>(s%64)&1 == 1; set != held {
						t.Fatalf("procs %d term %d shard %d: bit %v, entry %v", procs, tm, s, set, held)
					}
					if rank := fe.rank[at+s/64] + int32(bits.OnesCount64(words[s/64]&(1<<(s%64)-1))); held && rank != lo+int32(j) {
						t.Fatalf("procs %d term %d shard %d: ranked entry %d, want %d", procs, tm, s, rank, lo+int32(j))
					}
				}
			}
		}
		if multi == 0 {
			t.Fatalf("procs %d: no entry spans more than one block", procs)
		}
		for s := range assign.Pages {
			if !slices.Equal(fe.pages[s], assign.Pages[s]) {
				t.Fatalf("procs %d shard %d: page table is not the assignment's", procs, s)
			}
		}
	}
	a, b := builds[0], builds[1]
	if !reflect.DeepEqual(a.pages, b.pages) || !reflect.DeepEqual(a.termOff, b.termOff) ||
		!reflect.DeepEqual(a.fanShards, b.fanShards) || !reflect.DeepEqual(a.postOff, b.postOff) ||
		!reflect.DeepEqual(a.blocks, b.blocks) || !reflect.DeepEqual(a.sig, b.sig) ||
		!reflect.DeepEqual(a.dense, b.dense) || !reflect.DeepEqual(a.bits, b.bits) || !reflect.DeepEqual(a.rank, b.rank) {
		t.Fatal("NewFrontend differs between GOMAXPROCS 1 and 8")
	}
}

func TestFrontendTextModelValidation(t *testing.T) {
	g, ov, assign, store := buildInputs(t, 300, 4)
	if _, err := NewFrontend(g, ov, assign, store, Config{Text: search.Config{Vocabulary: 5, TermsPerPage: 12}}); err == nil {
		t.Error("frontend accepted more terms per page than the vocabulary holds")
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

// A frontend routes each query over its overlay to every candidate
// shard's ranker, so the overlay must hold exactly one node per shard:
// a missing overlay, or a ring shorter than the assignment, would send
// the first query that reaches a shard past the ring off its end.
func TestFrontendRefusesMismatchedOverlay(t *testing.T) {
	g, _, assign, store := buildInputs(t, 300, 4)
	for s, pages := range assign.Pages {
		if _, err := store.Publish(s, 1, make([]float64, len(pages))); err != nil {
			t.Fatal(err)
		}
	}
	short, err := pastry.New(nodeid.RankerIDs(2))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := search.DrawTerms(g, search.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ov   overlay.Network
	}{{"2-node ring", short}, {"nil", nil}} {
		for ctor, fn := range []func() (*Frontend, error){
			func() (*Frontend, error) { return NewFrontend(g, c.ov, assign, store, Config{CacheEntries: -1}) },
			func() (*Frontend, error) { return NewFrontendFrom(tm, c.ov, assign, store, Config{CacheEntries: -1}) },
		} {
			fe, err := fn()
			if err != nil {
				continue
			}
			// Accepted: serve single-term queries from shard 0 until
			// one reaches a shard the overlay does not hold.
			q := fe.NewQuerier()
			var resp search.Response
			for term := int32(0); term < 50; term++ {
				_ = q.Serve(search.Request{Terms: []int32{term}, K: 5}, &resp) // the construction already failed the test
			}
			t.Errorf("constructor %d accepted a %s overlay for %d shards", ctor, c.name, assign.K)
		}
	}
}

// BenchmarkFrontendBuild is the ratchet kernel for a tier build at the
// benchmark's size: 20,000 pages hashed by page over 1000 shards, text
// drawn and both passes of the term-major index included. allocs/op is
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
