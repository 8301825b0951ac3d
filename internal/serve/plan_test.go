package serve

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"p2prank/internal/search"
	"p2prank/internal/xrand"
)

// The plan against brute force, on one shard, forty and the benchmark's
// thousand: for random queries of 1–5 terms — duplicates and terms no
// page contains included — the candidates are exactly the shards a map
// intersection finds, ascending, and every remembered entry is an entry
// of its term whose shard is the candidate.
func TestPlanShardsMatchesBruteForce(t *testing.T) {
	for _, k := range []int{1, 40, 1000} {
		g, ov, assign, store := buildInputs(t, 20*k, k)
		fe, err := NewFrontend(g, ov, assign, store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// holds[t] is the set of shards with a page containing t.
		holds := make([]map[int32]bool, fe.text.Vocabulary)
		for s, pages := range assign.Pages {
			for _, p := range pages {
				terms, err := search.TermsOf(g, p, fe.text)
				if err != nil {
					t.Fatal(err)
				}
				for _, tm := range terms {
					if holds[tm] == nil {
						holds[tm] = map[int32]bool{}
					}
					holds[tm][int32(s)] = true
				}
			}
		}
		rng := xrand.New(uint64(k))
		q := fe.NewQuerier()
		dups, absent, multi := 0, 0, 0
		for n := 0; n < 2000; n++ {
			terms := make([]int32, 1+rng.Intn(5))
			for i := range terms {
				switch u := rng.Float64(); {
				case i > 0 && rng.Intn(8) == 0:
					terms[i] = terms[rng.Intn(i)]
					dups++
				case rng.Intn(3) == 0:
					terms[i] = int32(rng.Intn(fe.text.Vocabulary))
				default: // popular, so conjunctions survive
					terms[i] = int32(u * u * u * u * float64(fe.text.Vocabulary))
				}
				if holds[terms[i]] == nil {
					absent++
				}
			}
			var want []int32
			for s := int32(0); s < int32(k); s++ {
				if !slices.ContainsFunc(terms, func(tm int32) bool { return !holds[tm][s] }) {
					want = append(want, s)
				}
			}
			cand := q.planShards(terms)
			if !slices.Equal(cand, want) {
				t.Fatalf("K %d terms %v: candidates %v, want %v", k, terms, cand, want)
			}
			if len(terms) > 1 && len(cand) > 0 {
				multi++
			}
			for c, s := range cand {
				for i, tm := range terms {
					j := q.base + int32(c)
					if len(terms) > 1 {
						j = q.ent[c*len(terms)+i]
					}
					if j < fe.termOff[tm] || j >= fe.termOff[tm+1] || fe.fanShards[j] != s {
						t.Fatalf("K %d terms %v candidate %d: entry %d for term %d is not shard %d's", k, terms, c, j, tm, s)
					}
				}
			}
		}
		if dups == 0 || absent == 0 || multi == 0 {
			t.Fatalf("K %d: %d duplicate terms, %d absent terms, %d surviving conjunctions — the draw misses a case", k, dups, absent, multi)
		}
	}
}

// tableHealth answers from a table and records which shards were asked.
type tableHealth struct {
	state []ShardState
	asked []bool
}

func (h *tableHealth) ShardState(shard int) ShardState {
	h.asked[shard] = true
	return h.state[shard]
}

// The admission predicate against the definition it replaced — the
// worst staleness over the reachable shards, compared with the bound —
// over random staleness and health tables, with health consulted only
// about shards already over the bound.
func TestOverBoundMatchesMaxOverReachable(t *testing.T) {
	const k = 24
	g, ov, assign, store := buildInputs(t, 20*k, k)
	fe, err := NewFrontend(g, ov, assign, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	shedding, admitting := 0, 0
	for n := 0; n < 500; n++ {
		store, err := NewStore(k)
		if err != nil {
			t.Fatal(err)
		}
		h := &tableHealth{state: make([]ShardState, k), asked: make([]bool, k)}
		spread := 1 + rng.Intn(6)
		for s := 0; s < k; s++ {
			for i := rng.Intn(spread); i > 0; i-- {
				store.Advance(s)
			}
			h.state[s] = ShardState(rng.Intn(3))
		}
		bound := int64(1 + rng.Intn(spread))
		fe.store, fe.health, fe.adm.StalenessBound = store, h, bound
		if n%5 == 0 {
			fe.health = nil
		}
		var worst int64
		for s := 0; s < k; s++ {
			if fe.health == nil || h.state[s] != ShardUnreachable {
				worst = max(worst, store.Staleness(s))
			}
		}
		if got := fe.overBound(); got != (worst > bound) {
			t.Fatalf("draw %d: overBound %v, worst reachable staleness %d, bound %d", n, got, worst, bound)
		}
		if worst > bound {
			shedding++
		} else {
			admitting++
		}
		for s, asked := range h.asked {
			if asked && store.Staleness(s) <= bound {
				t.Fatalf("draw %d: health asked about shard %d at staleness %d, bound %d", n, s, store.Staleness(s), bound)
			}
		}
	}
	if shedding < 50 || admitting < 50 {
		t.Fatalf("%d shedding draws, %d admitting: the tables do not exercise both", shedding, admitting)
	}
}

// syncHealth is a fixed Health table, safe for concurrent use, that
// records which shards were asked.
type syncHealth struct {
	state []ShardState
	asked []atomic.Bool
}

func (h *syncHealth) ShardState(shard int) ShardState {
	h.asked[shard].Store(true)
	return h.state[shard]
}

// The over-bound list stays coherent while the store moves under it:
// queriers serve while a writer advances and publishes shards of the
// same store, and at every quiescent point overBound is the direct
// predicate — the worst reachable staleness over the bound — and asks
// Health only about shards over the bound. Run under -race by make race
// and make chaos.
func TestOverBoundCoherentUnderChurn(t *testing.T) {
	const k, bound, phases = 16, 2, 200
	g, ov, assign, store := buildInputs(t, 20*k, k)
	rng := xrand.New(13)
	h := &syncHealth{state: make([]ShardState, k), asked: make([]atomic.Bool, k)}
	for s := range h.state {
		h.state[s] = ShardState(rng.Intn(3))
	}
	fe, err := NewFrontend(g, ov, assign, store, Config{Health: h, Admission: Admission{StalenessBound: bound}})
	if err != nil {
		t.Fatal(err)
	}
	scores := make([][]float64, k)
	for s, pages := range assign.Pages {
		scores[s] = make([]float64, len(pages))
		if _, err := store.Publish(s, 1, scores[s]); err != nil {
			t.Fatal(err)
		}
	}
	shedding, admitting := 0, 0
	for phase := 0; phase < phases; phase++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for op := 0; op < 40; op++ {
				if s := rng.Intn(k); rng.Intn(2) == 0 {
					store.Advance(s)
				} else if _, err := store.Publish(s, int64(op), scores[s]); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(phase))
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				q := fe.NewQuerier()
				rng := xrand.New(seed)
				var resp search.Response
				for i := 0; i < 40; i++ {
					req := search.Request{Terms: []int32{int32(rng.Intn(8))}, K: 5}
					if err := q.Serve(req, &resp); err != nil &&
						!errors.Is(err, search.ErrOverloaded) && !errors.Is(err, search.ErrStaleIndex) {
						t.Error(err)
						return
					}
				}
			}(uint64(1000*phase + w))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		var worst int64
		for s := 0; s < k; s++ {
			h.asked[s].Store(false)
			if h.state[s] != ShardUnreachable {
				worst = max(worst, store.Staleness(s))
			}
		}
		if got := fe.overBound(); got != (worst > bound) {
			t.Fatalf("phase %d: overBound %v, worst reachable staleness %d, bound %d", phase, got, worst, bound)
		}
		for s := range h.asked {
			if h.asked[s].Load() && store.Staleness(s) <= bound {
				t.Fatalf("phase %d: health asked about shard %d at staleness %d, bound %d", phase, s, store.Staleness(s), bound)
			}
		}
		if worst > bound {
			shedding++
		} else {
			admitting++
		}
	}
	if shedding < phases/10 || admitting < phases/10 {
		t.Fatalf("%d shedding quiescent points, %d admitting: the writer does not exercise both", shedding, admitting)
	}
}

// An origin outside the overlay is refused before any per-query work —
// no hop row, no route walk, so no out-of-range panic — and the
// tier keeps answering cold-route queries afterwards.
func TestServeRefusesOriginOutsideOverlay(t *testing.T) {
	const k = 64
	g, ov, assign, store := buildInputs(t, 20*k, k)
	for s, pages := range assign.Pages {
		if _, err := store.Publish(s, 1, make([]float64, len(pages))); err != nil {
			t.Fatal(err)
		}
	}
	fe, err := NewFrontend(g, ov, assign, store, Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := fe.NewQuerier()
	var resp search.Response
	for _, from := range []int{-1, k, 1 << 20} {
		err := q.Serve(search.Request{Terms: []int32{0}, K: 5, From: from}, &resp)
		if !errors.Is(err, search.ErrBadOrigin) {
			t.Fatalf("from %d: err = %v, want ErrBadOrigin", from, err)
		}
		if len(q.hopRows) != 0 {
			t.Fatalf("from %d: refused query allocated a hop row", from)
		}
	}
	if err := fe.NewQuerier().Serve(search.Request{Terms: []int32{0}, K: 5, From: k - 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cost.Responses == 0 || len(resp.Postings) == 0 {
		t.Fatalf("cold-route query after the refusals consulted %d shards, found %d pages", resp.Cost.Responses, len(resp.Postings))
	}
}
