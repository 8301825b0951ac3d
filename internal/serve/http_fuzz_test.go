package serve

import (
	"errors"
	"net/url"
	"testing"

	"p2prank/internal/search"
)

// FuzzParseQuery throws arbitrary query strings at /search's parameter
// parsing. Whatever it accepts must be a request the tier can run: k
// and from inside their bounds, and Serve answering or refusing with
// one of the API's typed errors — never a panic, never an error the
// handler cannot map to a status.
func FuzzParseQuery(f *testing.F) {
	g, ov, assign, store := buildInputs(f, 400, 4)
	for s := 0; s < assign.K; s++ {
		if _, err := store.Publish(s, 1, make([]float64, len(assign.Pages[s]))); err != nil {
			f.Fatal(err)
		}
	}
	fe, err := NewFrontend(g, ov, assign, store, Config{Text: search.Config{Vocabulary: 300}})
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(fe, 5, nil)
	q := fe.NewQuerier()

	// The handler tests' requests, then the edges of each parameter.
	for _, seed := range []string{
		"terms=0,1&k=3", "terms=abc", "terms=0&minv=999999", "terms=0&k=5", "terms=bogus",
		"terms=3,17&k=10&from=0&minv=0", "terms=299&from=3", "terms=300", "terms=-1",
		"terms=0&k=0", "terms=0&k=-4", "terms=0&k=1000", "terms=0&k=1001", "terms=0&k=9223372036854775807",
		"terms=0&from=4", "terms=0&from=-1", "terms=0&minv=-9223372036854775808",
		"terms=", "terms=,", "terms= 7 , 8 ", "k=3", "terms=0&terms=1", "terms=0;k=3", "terms=%zz",
		"terms=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		u := url.URL{RawQuery: raw}
		req, err := h.parseQuery(u.Query())
		if err != nil {
			return
		}
		if req.K < 1 || req.K > MaxK {
			t.Fatalf("%q: accepted k = %d", raw, req.K)
		}
		if req.From < 0 || req.From >= ov.NumNodes() {
			t.Fatalf("%q: accepted from = %d with %d rankers", raw, req.From, ov.NumNodes())
		}
		if len(req.Terms) < 1 || len(req.Terms) > maxRequestTerms {
			t.Fatalf("%q: accepted %d terms", raw, len(req.Terms))
		}
		var resp search.Response
		switch err := q.Serve(req, &resp); {
		case err == nil:
			if len(resp.Postings) > req.K {
				t.Fatalf("%q: %d postings for k = %d", raw, len(resp.Postings), req.K)
			}
		case errors.Is(err, search.ErrUnknownTerm), errors.Is(err, search.ErrStaleIndex), errors.Is(err, search.ErrOverloaded):
		default:
			t.Fatalf("%q: accepted, then Serve failed untyped: %v", raw, err)
		}
	})
}
