package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2prank/internal/search"
	"p2prank/internal/telemetry"
)

// Handler serves the query API over HTTP:
//
//	GET /search?terms=3,17&k=10&from=0&minv=0
//
// Responses are JSON. Staleness violations map to 503 (retry once the
// rankers publish), malformed queries to 400. A sync.Pool of Queriers
// keeps concurrent requests off each other's scratch buffers.
type Handler struct {
	fe       *Frontend
	defaultK int
	tel      *telemetry.Collector
	pool     sync.Pool
}

type querierState struct {
	q    *Querier
	resp search.Response
}

// NewHandler builds the HTTP front end. defaultK bounds results when
// the request omits k; tel (nil: off) receives per-query latency and
// staleness.
func NewHandler(fe *Frontend, defaultK int, tel *telemetry.Collector) *Handler {
	if defaultK <= 0 {
		defaultK = 10
	}
	h := &Handler{fe: fe, defaultK: defaultK, tel: tel}
	h.pool.New = func() any { return &querierState{q: fe.NewQuerier()} }
	return h
}

// Mux returns a mux with the handler mounted at /search.
func (h *Handler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/search", h)
	return mux
}

type httpPosting struct {
	Page  int32   `json:"page"`
	Score float64 `json:"score"`
}

type httpResponse struct {
	Version   int64         `json:"version"`
	Staleness int64         `json:"staleness"`
	Cost      search.Cost   `json:"cost"`
	Coverage  float64       `json:"coverage"`
	Degraded  bool          `json:"degraded"`
	Hedged    int           `json:"hedged,omitempty"`
	Postings  []httpPosting `json:"postings"`
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := h.parseQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := h.pool.Get().(*querierState)
	defer h.pool.Put(st)
	start := time.Now()
	serveErr := st.q.Serve(req, &st.resp)
	if h.tel != nil && serveErr == nil {
		h.tel.QueryServed(time.Since(start).Seconds(), st.resp.Staleness)
	}
	if serveErr != nil {
		switch {
		case errors.Is(serveErr, search.ErrOverloaded):
			// Shed, not failed: tell the client when to come back, in
			// whole seconds per RFC 9110.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			http.Error(w, serveErr.Error(), http.StatusTooManyRequests)
		case errors.Is(serveErr, search.ErrStaleIndex):
			http.Error(w, serveErr.Error(), http.StatusServiceUnavailable)
		case errors.Is(serveErr, search.ErrUnknownTerm):
			http.Error(w, serveErr.Error(), http.StatusBadRequest)
		default:
			http.Error(w, serveErr.Error(), http.StatusBadRequest)
		}
		return
	}
	out := httpResponse{
		Version:   st.resp.Version,
		Staleness: st.resp.Staleness,
		Cost:      st.resp.Cost,
		Coverage:  st.resp.Coverage,
		Degraded:  st.resp.Degraded,
		Hedged:    st.resp.Hedged,
		Postings:  make([]httpPosting, len(st.resp.Postings)),
	}
	for i, p := range st.resp.Postings {
		out.Postings[i] = httpPosting{Page: p.Page, Score: p.Score}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return // client went away; nothing to salvage
	}
}

// What one request may ask for. A k sizes the merge heap and a term
// list is kept as a cache key, so neither can be left to the client.
const (
	maxRequestK     = 1000
	maxRequestTerms = 32
)

// parseQuery turns /search parameters into a request Serve can only
// refuse with a typed error: terms present and few, k and from in
// range. (Terms outside the vocabulary are Serve's ErrUnknownTerm.)
func (h *Handler) parseQuery(q url.Values) (search.Request, error) {
	rawTerms := q.Get("terms")
	if rawTerms == "" {
		return search.Request{}, fmt.Errorf("serve: missing terms parameter")
	}
	if n := strings.Count(rawTerms, ",") + 1; n > maxRequestTerms {
		return search.Request{}, fmt.Errorf("serve: %d terms, at most %d", n, maxRequestTerms)
	}
	var req search.Request
	for _, s := range strings.Split(rawTerms, ",") {
		t, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
		if err != nil {
			return search.Request{}, fmt.Errorf("serve: bad term %q: %w", s, err)
		}
		req.Terms = append(req.Terms, int32(t))
	}
	req.K = h.defaultK
	if raw := q.Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return search.Request{}, fmt.Errorf("serve: bad k %q: %w", raw, err)
		}
		if k < 1 || k > maxRequestK {
			return search.Request{}, fmt.Errorf("serve: k = %d, must be in [1, %d]", k, maxRequestK)
		}
		req.K = k
	}
	if raw := q.Get("from"); raw != "" {
		from, err := strconv.Atoi(raw)
		if err != nil {
			return search.Request{}, fmt.Errorf("serve: bad from %q: %w", raw, err)
		}
		if nodes := h.fe.ov.NumNodes(); from < 0 || from >= nodes {
			return search.Request{}, fmt.Errorf("serve: from = %d, overlay has rankers 0..%d", from, nodes-1)
		}
		req.From = from
	}
	if raw := q.Get("minv"); raw != "" {
		mv, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return search.Request{}, fmt.Errorf("serve: bad minv %q: %w", raw, err)
		}
		req.MinVersion = mv
	}
	return req, nil
}
