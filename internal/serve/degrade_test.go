package serve_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/search"
	"p2prank/internal/serve"
)

// fakeHealth is a hand-set Health: shards default healthy.
type fakeHealth struct {
	mu    sync.Mutex
	state map[int]serve.ShardState
}

func (h *fakeHealth) set(shard int, s serve.ShardState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == nil {
		h.state = make(map[int]serve.ShardState)
	}
	h.state[shard] = s
}

func (h *fakeHealth) ShardState(shard int) serve.ShardState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state[shard]
}

// degradedFrontend builds a second frontend over an existing fixture's
// store with degraded-serving knobs on.
func degradedFrontend(t *testing.T, f *fixture, cacheEntries int, h serve.Health, adm serve.Admission) *serve.Frontend {
	t.Helper()
	fe, err := serve.NewFrontend(f.g, f.ov, f.assign, f.store, serve.Config{
		Text: f.text, CacheEntries: cacheEntries, Health: h, Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// wideQuery returns a single-term request that fans out to at least two
// shards, plus the shards it plans.
func wideQuery(t *testing.T, f *fixture, fe *serve.Frontend) (search.Request, []int) {
	t.Helper()
	q := fe.NewQuerier()
	var resp search.Response
	// K is uncapped relative to any term's match count, so dropping a
	// shard strictly shrinks the result.
	for term := int32(0); term < 100; term++ {
		req := search.Request{Terms: []int32{term}, K: 2000}
		if err := q.Serve(req, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cost.Responses >= 3 {
			shards := make(map[int32]bool)
			for _, p := range resp.Postings {
				shards[f.assign.GroupOf[p.Page]] = true
			}
			var list []int
			for s := range shards {
				list = append(list, int(s))
			}
			if len(list) >= 2 {
				return req, list
			}
		}
	}
	t.Fatal("no term fans out to 2+ shards")
	return search.Request{}, nil
}

func TestDegradedPartialCoverage(t *testing.T) {
	f := newFixture(t, 1500, 8, -1)
	h := &fakeHealth{}
	fe := degradedFrontend(t, f, -1, h, serve.Admission{})
	req, shards := wideQuery(t, f, fe)

	q := fe.NewQuerier()
	var full search.Response
	if err := q.Serve(req, &full); err != nil {
		t.Fatal(err)
	}
	if full.Coverage != 1 || full.Degraded {
		t.Fatalf("healthy fan-out reported coverage %v degraded %v", full.Coverage, full.Degraded)
	}

	// Partition one contributing shard away: the query must still
	// answer, minus that shard's postings, and say so.
	lost := shards[0]
	h.set(lost, serve.ShardUnreachable)
	var part search.Response
	if err := q.Serve(req, &part); err != nil {
		t.Fatalf("partial fan-out errored: %v", err)
	}
	if !part.Degraded || part.Coverage >= 1 || part.Coverage <= 0 {
		t.Fatalf("degraded answer reported coverage %v degraded %v", part.Coverage, part.Degraded)
	}
	if len(part.Postings) >= len(full.Postings) {
		t.Fatalf("lost shard %d but postings grew: %d -> %d", lost, len(full.Postings), len(part.Postings))
	}
	for _, p := range part.Postings {
		if int(f.assign.GroupOf[p.Page]) == lost {
			t.Fatalf("page %d served from unreachable shard %d", p.Page, lost)
		}
	}
	if st := fe.DegradeStats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}

	// Heal: full coverage returns.
	h.set(lost, serve.ShardHealthy)
	var healed search.Response
	if err := q.Serve(req, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Coverage != 1 || healed.Degraded || len(healed.Postings) != len(full.Postings) {
		t.Fatalf("post-heal answer still degraded: coverage %v, %d postings", healed.Coverage, len(healed.Postings))
	}
}

func TestDegradedAllShardsUnreachable(t *testing.T) {
	f := newFixture(t, 800, 4, -1)
	h := &fakeHealth{}
	for s := 0; s < 4; s++ {
		h.set(s, serve.ShardUnreachable)
	}
	fe := degradedFrontend(t, f, -1, h, serve.Admission{})
	q := fe.NewQuerier()
	var resp search.Response
	err := q.Serve(search.Request{Terms: []int32{0}, K: 5}, &resp)
	if !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("zero-coverage query returned %v, want ErrStaleIndex", err)
	}
}

func TestHedgedReadServesReplica(t *testing.T) {
	f := newFixture(t, 1500, 8, -1)
	h := &fakeHealth{}
	fe := degradedFrontend(t, f, -1, h, serve.Admission{})
	req, shards := wideQuery(t, f, fe)

	// Second publish at a later round: the fixture's round-1 snapshots
	// become the replicas.
	publishAll(t, f.store, f.assign, f.ranks, 5)
	slow := shards[0]
	if f.store.Replica(slow) == nil {
		t.Fatal("no replica after second publish")
	}
	h.set(slow, serve.ShardSlow)

	q := fe.NewQuerier()
	var resp search.Response
	if err := q.Serve(req, &resp); err != nil {
		t.Fatalf("hedged query errored: %v", err)
	}
	if resp.Hedged != 1 {
		t.Fatalf("hedged = %d, want 1", resp.Hedged)
	}
	if resp.Degraded || resp.Coverage != 1 {
		t.Fatalf("hedged shard counted as lost coverage: %v/%v", resp.Coverage, resp.Degraded)
	}
	// The replica is 4 rounds (5−1) behind its primary; that gap must
	// surface in the staleness the caller sees.
	if resp.Staleness < 4 {
		t.Fatalf("staleness %d hides the replica's round gap", resp.Staleness)
	}
	// And the served version is the replica's (first-publish era), not
	// the second publish's.
	if resp.Version > int64(f.assign.K) {
		t.Fatalf("version %d not from the replica era (first %d publishes)", resp.Version, f.assign.K)
	}
	if st := fe.DegradeStats(); st.Hedged != 1 {
		t.Fatalf("hedged counter = %d, want 1", st.Hedged)
	}
}

// A slow shard published only once has no replica: the primary is read,
// so nothing is hedged, and the answer is a full one the cache keeps.
func TestSlowShardWithoutReplicaIsNotHedged(t *testing.T) {
	f := newFixture(t, 1500, 8, -1)
	h := &fakeHealth{}
	fe := degradedFrontend(t, f, 0, h, serve.Admission{})
	req, shards := wideQuery(t, f, fe)
	slow := shards[0]
	if f.store.Replica(slow) != nil {
		t.Fatal("replica present after a single publish")
	}
	h.set(slow, serve.ShardSlow)

	q := fe.NewQuerier()
	var resp search.Response
	req.K-- // a request wideQuery did not already put in the cache
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Hedged != 0 || resp.Degraded || resp.Coverage != 1 {
		t.Fatalf("hedged %d, degraded %v, coverage %v; want a full answer from primaries", resp.Hedged, resp.Degraded, resp.Coverage)
	}
	if st := fe.DegradeStats(); st.Hedged != 0 {
		t.Fatalf("hedged counter = %d, want 0", st.Hedged)
	}
	hits, _ := fe.CacheStats()
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if again, _ := fe.CacheStats(); again != hits+1 {
		t.Fatalf("repeat query: %d cache hits, want %d", again, hits+1)
	}
}

// TestMisfitSnapshotRefused: the store takes a score vector of any
// length, but the scan indexes it by local page. A snapshot that does
// not score exactly its shard's pages is refused like a missing one —
// in strict mode an ErrStaleIndex naming the shard, under Health lost
// coverage — whether it is the primary or the hedged replica.
func TestMisfitSnapshotRefused(t *testing.T) {
	short := func(int) int { return 1 }
	long := func(n int) int { return n + 1 }
	fit := func(n int) int { return n }
	for _, tc := range []struct {
		name         string
		health, slow bool
		// publishes are the score-vector lengths published to the shard
		// after the fixture's fitting round-1 snapshot, as functions of
		// its page count.
		publishes []func(int) int
		lost      bool
	}{
		{"strict/short primary", false, false, []func(int) int{short}, true},
		{"strict/long primary", false, false, []func(int) int{long}, true},
		{"degraded/short primary", true, false, []func(int) int{short}, true},
		{"degraded/long primary", true, false, []func(int) int{long}, true},
		{"hedged/short replica", true, true, []func(int) int{short, fit}, true},
		{"hedged/long primary", true, true, []func(int) int{long}, true},
		{"hedged/fitting", true, true, []func(int) int{fit}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 800, 4, -1)
			h := &fakeHealth{}
			fe := f.fe
			if tc.health {
				fe = degradedFrontend(t, f, -1, h, serve.Admission{})
			}
			req, shards := wideQuery(t, f, fe)
			s := shards[0]
			for i, size := range tc.publishes {
				scores := make([]float64, size(len(f.assign.Pages[s])))
				for j := range scores {
					scores[j] = 1
				}
				if _, err := f.store.Publish(s, int64(2+i), scores); err != nil {
					t.Fatal(err)
				}
			}
			if tc.slow {
				h.set(s, serve.ShardSlow)
			}

			var resp search.Response
			err := fe.NewQuerier().Serve(req, &resp)
			if !tc.health {
				if !errors.Is(err, search.ErrStaleIndex) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d ", s)) {
					t.Fatalf("misfit snapshot on shard %d: %v, want ErrStaleIndex naming it", s, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("misfit snapshot on shard %d failed the query: %v", s, err)
			}
			if resp.Degraded != tc.lost || (resp.Coverage < 1) != tc.lost {
				t.Fatalf("shard %d: coverage %v degraded %v, want lost %v", s, resp.Coverage, resp.Degraded, tc.lost)
			}
			wantHedged := 0
			if tc.slow && !tc.lost {
				wantHedged = 1
			}
			if resp.Hedged != wantHedged {
				t.Fatalf("shard %d: %d hedged reads, want %d", s, resp.Hedged, wantHedged)
			}
			for _, p := range resp.Postings {
				if tc.lost && int(f.assign.GroupOf[p.Page]) == s {
					t.Fatalf("page %d served from refused shard %d", p.Page, s)
				}
			}
		})
	}
}

func TestAdmissionShedsOnStalenessBound(t *testing.T) {
	f := newFixture(t, 800, 4, -1)
	h := &fakeHealth{}
	// Checkpoint cadence Every=2 ⇒ the serving bound is 2·2−1 = 3.
	fe := degradedFrontend(t, f, -1, h, serve.Admission{StalenessBound: 3})
	q := fe.NewQuerier()
	req := search.Request{Terms: []int32{0}, K: 5}
	var resp search.Response

	// At the bound: still admitted.
	for i := 0; i < 3; i++ {
		f.store.Advance(2)
	}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatalf("query at the bound shed: %v", err)
	}
	// Past the bound: shed, with a one-second retry-after.
	f.store.Advance(2)
	err := q.Serve(req, &resp)
	if !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("query past the bound got %v, want ErrOverloaded", err)
	}
	var oe *search.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != 1 {
		t.Fatalf("shed error carries retry-after %+v, want 1s", oe)
	}
	if st := fe.DegradeStats(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
	// The laggard is partitioned away: its staleness is lost coverage,
	// not a reason to refuse queries the healthy side can answer.
	h.set(2, serve.ShardUnreachable)
	if err := q.Serve(req, &resp); err != nil && !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("unreachable laggard still sheds: %v", err)
	}
	h.set(2, serve.ShardHealthy)
	// A publish catches the shard up and admission reopens.
	publishAll(t, f.store, f.assign, f.ranks, 9)
	if err := q.Serve(req, &resp); err != nil {
		t.Fatalf("query after catch-up shed: %v", err)
	}
}

// TestCacheHonorsMinVersion is the regression test for the cache bound
// bug: a cached entry whose served version is older than the request's
// MinVersion must not be returned as a hit — the bound is checked
// before the copy-out, and the compute path then reports staleness.
func TestCacheHonorsMinVersion(t *testing.T) {
	f := newFixture(t, 1500, 8, 64)
	q := f.fe.NewQuerier()
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 10}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	cachedV := resp.Version
	storeV := f.store.Version()
	if cachedV >= storeV {
		t.Skipf("term 0's oldest consulted version %d not below store version %d", cachedV, storeV)
	}
	hits0, misses0 := f.fe.CacheStats()

	// Same query, fresher floor: the cached entry violates the bound.
	req.MinVersion = cachedV + 1
	err := q.Serve(req, &resp)
	if !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("bound-violating request got %v, want ErrStaleIndex", err)
	}
	if hits, misses := f.fe.CacheStats(); hits != hits0 || misses != misses0+1 {
		t.Fatalf("a MinVersion newer than the entry: hits %d -> %d, misses %d -> %d, want a miss and no hit",
			hits0, hits, misses0, misses)
	}

	// The unconstrained query still hits.
	req.MinVersion = 0
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if hits, _ := f.fe.CacheStats(); hits != hits0+1 {
		t.Fatalf("cache lost the entry: hits %d, want %d", hits, hits0+1)
	}
}

func TestDegradedResponsesNotCached(t *testing.T) {
	f := newFixture(t, 1500, 8, 64)
	h := &fakeHealth{}
	fe := degradedFrontend(t, f, 64, h, serve.Admission{})
	// Discover the query on the fixture's own frontend so fe's cache
	// stays cold for the degraded pass.
	req, shards := wideQuery(t, f, f.fe)
	q := fe.NewQuerier()

	h.set(shards[0], serve.ShardUnreachable)
	var resp search.Response
	for i := 0; i < 2; i++ {
		if err := q.Serve(req, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded {
			t.Fatal("expected a degraded answer")
		}
	}
	if hits, _ := fe.CacheStats(); hits != 0 {
		t.Fatalf("degraded answers were cached: %d hits", hits)
	}

	// After the heal the full answer is computed fresh — not replayed
	// from a poisoned entry — and only then becomes cacheable.
	h.set(shards[0], serve.ShardHealthy)
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.Coverage != 1 {
		t.Fatal("post-heal answer replayed degraded state")
	}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if hits, _ := fe.CacheStats(); hits != 1 {
		t.Fatalf("post-heal full answer not cached: %d hits", hits)
	}
}

func TestLatticeHealthMirrorsFaultConfig(t *testing.T) {
	cfg := dprcore.FaultConfig{
		PartitionFrac: 0.3, PartitionFrom: 2, PartitionTo: 10,
		StraggleFrac: 0.2, StraggleFactor: 4, Seed: 11,
	}
	now := 0.0
	h, err := serve.NewLatticeHealth(cfg, 0, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	at := 0 // the frontend's node; cfg.PartitionMinority(0) is its side
	var far, straggler int
	for n := 1; n < 256; n++ {
		if far == 0 && cfg.PartitionMinority(n) != cfg.PartitionMinority(at) {
			far = n
		}
		if straggler == 0 && cfg.Straggler(n) && !(cfg.PartitionMinority(n) != cfg.PartitionMinority(at)) {
			straggler = n
		}
	}
	if far == 0 || straggler == 0 {
		t.Fatal("lattice has no far-side or same-side-straggler node in 256")
	}
	if h.ShardState(far) != serve.ShardHealthy {
		t.Fatal("shard unreachable before the window opened")
	}
	now = 5
	if h.ShardState(far) != serve.ShardUnreachable {
		t.Fatal("far-side shard reachable during the partition")
	}
	if got := h.ShardState(straggler); got != serve.ShardSlow {
		t.Fatalf("straggler state %v, want slow", got)
	}
	now = 10
	if h.ShardState(far) != serve.ShardHealthy {
		t.Fatal("shard still unreachable after the heal")
	}

	// The clock-free bits come from a table the first reads fill: shards
	// first seen out of order, past the first table's length, and by
	// several goroutines at once must read as the config says.
	want := func(shard int, now float64) serve.ShardState {
		switch {
		case cfg.PartitionActiveAt(now) && cfg.PartitionMinority(shard) != cfg.PartitionMinority(at):
			return serve.ShardUnreachable
		case cfg.Straggler(shard):
			return serve.ShardSlow
		}
		return serve.ShardHealthy
	}
	const shards = 5000
	now = 5
	h, err = serve.NewLatticeHealth(cfg, at, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{70, 3, 1000, 64, 63, 0, 129, 4095, 4096, shards - 1} {
		if got, w := h.ShardState(s), want(s, now); got != w {
			t.Fatalf("shard %d first read out of order: %v, want %v", s, got, w)
		}
	}
	for _, now = range []float64{0, 5, 10} {
		for s := shards - 1; s >= 0; s-- {
			if got, w := h.ShardState(s), want(s, now); got != w {
				t.Fatalf("shard %d at t=%v: %v, want %v", s, now, got, w)
			}
		}
	}
	h, err = serve.NewLatticeHealth(cfg, at, func() float64 { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < shards; i++ {
				s := (i*7919 + g*613) % shards // a different order each
				if got, w := h.ShardState(s), want(s, 5); got != w {
					t.Errorf("goroutine %d, shard %d: %v, want %v", g, s, got, w)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if _, err := serve.NewLatticeHealth(cfg, 0, nil); err == nil {
		t.Error("nil time source accepted")
	}
	if _, err := serve.NewLatticeHealth(dprcore.FaultConfig{PartitionFrac: 2}, 0, func() float64 { return 0 }); err == nil {
		t.Error("invalid fault config accepted")
	}
}

func TestStoreReplica(t *testing.T) {
	store, err := serve.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if store.Replica(0) != nil {
		t.Fatal("replica before any publish")
	}
	if _, err := store.Publish(0, 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if store.Replica(0) != nil {
		t.Fatal("replica after a single publish")
	}
	if _, err := store.Publish(0, 3, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	prev := store.Replica(0)
	if prev == nil || prev.Round != 1 || prev.Version != 1 {
		t.Fatalf("replica = %+v, want the displaced round-1 snapshot", prev)
	}
	if cur := store.Snapshot(0); cur.Round != 3 || cur.Version != 2 {
		t.Fatalf("primary = %+v", cur)
	}
}
