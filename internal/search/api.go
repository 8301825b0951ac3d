// The query-serving API: the Request/Response contract shared by the
// static Index and the snapshot-backed serving tier (internal/serve).
//
// Build keeps its shape, but querying is a single entry point —
// Serve(Request, *Response) — so callers written against the static
// index migrate unchanged onto versioned snapshot serving: the same
// request either hits a frozen rank vector (here) or whatever snapshot
// versions the rankers have published (serve.Querier).
package search

import (
	"errors"
	"fmt"
	"sort"

	"p2prank/internal/overlay"
)

// Typed sentinel errors of the query API. Wrap-aware: match with
// errors.Is.
var (
	// ErrUnknownTerm reports a query term outside the vocabulary.
	ErrUnknownTerm = errors.New("search: term outside vocabulary")
	// ErrBadOrigin reports a request whose From is not a node of the
	// overlay — there is no ranker to account its lookup hops from.
	ErrBadOrigin = errors.New("search: query origin outside the overlay")
	// ErrStaleIndex reports that the server cannot satisfy the
	// request's MinVersion — the served ranks are older than the
	// caller demands (or no snapshot has been published yet).
	ErrStaleIndex = errors.New("search: served ranks older than requested MinVersion")
	// ErrOverloaded reports that admission control shed the query: the
	// server is over its in-flight limit or its served ranks have
	// drifted past the staleness bound. Retry after the hint carried by
	// the wrapping OverloadError.
	ErrOverloaded = errors.New("search: overloaded, query shed by admission control")
)

// OverloadError is the typed shed error: it matches ErrOverloaded under
// errors.Is and carries the server's retry hint.
type OverloadError struct {
	// RetryAfter is the suggested wait before retrying, in seconds.
	RetryAfter float64
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %.3gs)", ErrOverloaded, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// StaticVersion is the version a freshly built static Index serves:
// its rank vector is frozen at build time, so there is exactly one.
const StaticVersion = 1

// Request is a conjunctive top-k query.
type Request struct {
	// Terms the result pages must ALL contain.
	Terms []int32
	// K bounds the result size.
	K int
	// From is the ranker the query originates at — the origin of the
	// overlay hop accounting in Response.Cost.
	From int
	// MinVersion, when positive, demands ranks at least this fresh:
	// serving any snapshot older than MinVersion fails with
	// ErrStaleIndex instead of silently answering from stale data.
	MinVersion int64
}

// Validate checks the request shape against a vocabulary size.
func (r Request) Validate(vocabulary int) error {
	if len(r.Terms) == 0 {
		return fmt.Errorf("search: empty query")
	}
	if r.K <= 0 {
		return fmt.Errorf("search: k = %d, must be positive", r.K)
	}
	for _, t := range r.Terms {
		if t < 0 || int(t) >= vocabulary {
			return fmt.Errorf("%w: term %d, vocabulary %d", ErrUnknownTerm, t, vocabulary)
		}
	}
	return nil
}

// Cost is the overlay traffic of resolving one query: the lookup hops
// from the requesting ranker to each consulted shard/owner, plus one
// response message per consultation.
type Cost struct {
	LookupHops int
	Responses  int
}

// Response is a served query result. Postings is filled by appending
// into Postings[:0], so callers that reuse a Response across queries
// pay no allocation once its capacity has grown.
type Response struct {
	// Postings are the top-k matches, best first (score descending,
	// page ascending on ties).
	Postings []Posting
	// Version identifies the rank data that produced the scores: the
	// oldest snapshot version consulted (StaticVersion for a static
	// Index). Monotone across publishes.
	Version int64
	// Staleness is how many committed rounds behind the live
	// computation the served ranks are, maximized over consulted
	// shards (0 for a static Index).
	Staleness int64
	// Cost is the overlay traffic this query accounted for.
	Cost Cost
	// Coverage is the fraction of the shards the query planner wanted
	// that actually contributed partial results: 1 on a healthy fan-out,
	// lower when partitions or deadlines forced a partial merge. A
	// static Index always serves full coverage.
	Coverage float64
	// Degraded reports a partial answer: at least one planned shard was
	// skipped, so Postings may miss matches that shard held. Paired
	// with Coverage it lets callers decide whether a degraded answer is
	// good enough instead of the server deciding for them with an error.
	Degraded bool
	// Hedged counts shard reads that missed their deadline on the
	// primary snapshot and were answered from the replica (previous
	// published) snapshot instead. Hedged shards still count as covered;
	// their extra rounds-behind show up in Staleness.
	Hedged int
}

// Serve answers a conjunctive top-k query from the frozen build-time
// rank vector. It intersects posting lists smallest-first (the
// standard conjunctive plan) and accounts hop costs to each distinct
// term owner, QueryCost-style.
func (ix *Index) Serve(req Request, resp *Response) error {
	resp.Postings = resp.Postings[:0]
	resp.Version = StaticVersion
	resp.Staleness = 0
	resp.Cost = Cost{}
	resp.Coverage = 1
	resp.Degraded = false
	resp.Hedged = 0
	if err := req.Validate(ix.cfg.Vocabulary); err != nil {
		return err
	}
	if n := ix.ov.NumNodes(); req.From < 0 || req.From >= n {
		return fmt.Errorf("%w: from %d, overlay has %d nodes", ErrBadOrigin, req.From, n)
	}
	if req.MinVersion > StaticVersion {
		return fmt.Errorf("%w: static index serves version %d, want >= %d",
			ErrStaleIndex, StaticVersion, req.MinVersion)
	}
	cost, err := ix.queryCost(req.From, req.Terms)
	if err != nil {
		return err
	}
	resp.Cost = cost

	lists := make([][]Posting, len(req.Terms))
	for i, t := range req.Terms {
		lists[i] = ix.postings[t]
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	if len(lists[0]) == 0 {
		return nil
	}
	// Membership sets for all but the smallest list.
	member := make([]map[int32]bool, len(lists)-1)
	for i, ps := range lists[1:] {
		m := make(map[int32]bool, len(ps))
		for _, e := range ps {
			m[e.Page] = true
		}
		member[i] = m
	}
	for _, e := range lists[0] { // already best-first
		inAll := true
		for _, m := range member {
			if !m[e.Page] {
				inAll = false
				break
			}
		}
		if inAll {
			resp.Postings = append(resp.Postings, e)
			if len(resp.Postings) == req.K {
				break
			}
		}
	}
	return nil
}

// queryCost sums the lookup hops from the requesting ranker to each
// distinct term owner plus one response per owner.
func (ix *Index) queryCost(from int, terms []int32) (Cost, error) {
	var c Cost
	owners := make(map[int32]bool)
	for _, t := range terms {
		owners[ix.termOwner[t]] = true
	}
	for o := range owners {
		h, err := overlay.Hops(ix.ov, from, ix.ov.NodeID(int(o)))
		if err != nil {
			return Cost{}, err
		}
		c.LookupHops += h
		c.Responses++
	}
	return c, nil
}
