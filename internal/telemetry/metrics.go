package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// histogram counts observations into fixed upper bounds plus +Inf.
type histogram struct {
	bounds []float64
	counts []int64 // per bucket, not cumulative; the last is +Inf
	sum    float64
	count  int64
	// integral says the observations are whole numbers, whose sum is
	// exported as an integer.
	integral bool
}

func newHistogram(integral bool, bounds ...float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1), integral: integral}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// appendTo renders the cumulative buckets, sum and count under name.
func (h *histogram) appendTo(b []byte, name string) []byte {
	var cum int64
	for i, n := range h.counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		b = append(b, name+`_bucket{le="`+le+`"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name+"_sum "...)
	if h.integral {
		b = strconv.AppendInt(b, int64(h.sum), 10)
	} else {
		b = strconv.AppendFloat(b, h.sum, 'e', -1, 64)
	}
	b = append(b, "\n"+name+"_count "...)
	b = strconv.AppendInt(b, h.count, 10)
	return append(b, '\n')
}

// family is one /metrics family. label says how many samples it has and
// what tells them apart: "ranker" (one per slot), "kind" (one per fault
// kind) or "" (one, unlabelled); exactly one of ints, floats and hist
// is set and supplies sample i's value.
type family struct {
	name, help, typ, label string

	ints   func(c *Collector, i int) int64
	floats func(c *Collector, i int) float64
	hist   func(c *Collector) *histogram
}

// families is everything /metrics exports, in exposition order. A new
// metric is one line here plus whatever its getter reads. Scrapers and
// the metrics golden pin the order: append, don't insert.
var families = []family{
	{name: "rounds_total", help: "Main-loop iterations committed.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Rounds }},
	{name: "inner_iterations_total", help: "Inner solver steps executed.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].InnerIterations }},
	{name: "chunks_sent_total", help: "Score chunks emitted at the Sender seam.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Chunks }},
	{name: "links_sent_total", help: "Inter-group link records emitted.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Links }},
	{name: "chunk_bytes_total", help: "Payload bytes emitted (links x size model).", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Links * DefaultBytesPerLink }},
	{name: "chunk_hops_total", help: "Overlay hops attributed to emitted chunks.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Hops }},
	{name: "retries_total", help: "Chunk retransmissions by the reliable-delivery seam.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Retries }},
	{name: "acks_total", help: "Cumulative acks that cleared a pending chunk.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Acks }},
	{name: "recoveries_total", help: "Checkpoint restores after a crash.", typ: "counter", label: "ranker", ints: func(c *Collector, i int) int64 { return c.slots[i].Recoveries }},
	{name: "faults_total", help: "Injected transport faults by kind.", typ: "counter", label: "kind", ints: func(c *Collector, i int) int64 { return c.faults[i] }},
	{name: "residual", help: "Last inner residual per ranker.", typ: "gauge", label: "ranker", floats: func(c *Collector, i int) float64 { return c.slots[i].LastResidual }},
	{name: "milestones_total", help: "Convergence checkpoints recorded.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.milestones }},
	{name: "rel_err", help: "Relative error at the last checkpoint.", typ: "gauge", floats: func(c *Collector, _ int) float64 { return c.lastMilestone.RelErr }},
	{name: "inner_iterations", help: "Inner solver steps per compute phase.", typ: "histogram", hist: func(c *Collector) *histogram { return &c.innerIters }},
	{name: "queries_total", help: "Serving-tier queries answered.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.queryLatency.count }},
	{name: "query_latency_seconds", help: "Serving-tier query latency.", typ: "histogram", hist: func(c *Collector) *histogram { return &c.queryLatency }},
	{name: "served_staleness", help: "Rounds behind on the last served query.", typ: "gauge", ints: func(c *Collector, _ int) int64 { return c.stalenessLast }},
	{name: "served_staleness_max", help: "Worst staleness served so far.", typ: "gauge", ints: func(c *Collector, _ int) int64 { return c.stalenessMax }},
	{name: "snapshot_publishes_total", help: "Rank snapshots swapped into the serving store.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.snapPublishes }},
	{name: "snapshot_version", help: "Newest published snapshot version.", typ: "gauge", ints: func(c *Collector, _ int) int64 { return c.snapVersion }},
	{name: "queries_shed_total", help: "Queries admission control refused.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.served.Shed }},
	{name: "hedged_reads_total", help: "Shard reads that fell back to the replica snapshot.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.served.Hedged }},
	{name: "degraded_answers_total", help: "Queries answered with partial shard coverage.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.served.Degraded }},
	{name: "query_cache_hits_total", help: "Response-cache lookups answered from the cache.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.served.CacheHits }},
	{name: "query_cache_misses_total", help: "Response-cache lookups that fell through to the scan.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.served.CacheMisses }},
	{name: "query_cache_evictions_total", help: "Cached responses evicted to make room for a fill.", typ: "counter", ints: func(c *Collector, _ int) int64 { return c.served.CacheEvictions }},
	{name: "query_cache_entries", help: "Responses the cache holds now.", typ: "gauge", ints: func(c *Collector, _ int) int64 { return c.served.CacheEntries }},
}

// appendTo renders f's header and samples from c's state.
func (f *family) appendTo(b []byte, c *Collector) []byte {
	name := "p2prank_" + f.name
	b = append(b, "# HELP "+name+" "+f.help+"\n# TYPE "+name+" "+f.typ+"\n"...)
	if f.hist != nil {
		return f.hist(c).appendTo(b, name)
	}
	n, value := 1, strconv.Itoa
	switch f.label {
	case "ranker":
		n = len(c.slots)
	case "kind":
		n, value = NumFaultKinds, func(i int) string { return FaultKind(i).String() }
	}
	for i := 0; i < n; i++ {
		b = append(b, name...)
		if f.label != "" {
			b = append(b, `{`+f.label+`="`+value(i)+`"}`...)
		}
		b = append(b, ' ')
		if f.ints != nil {
			b = strconv.AppendInt(b, f.ints(c, i), 10)
		} else {
			b = strconv.AppendFloat(b, f.floats(c, i), 'e', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// WriteMetrics renders the families in Prometheus text exposition
// format (version 0.0.4).
func (c *Collector) WriteMetrics(w io.Writer) error {
	// The serving getter is the query tier's code: call it before
	// taking the mutex, not under it.
	c.mu.Lock()
	serving := c.serving
	c.mu.Unlock()
	var served ServingStats
	if serving != nil {
		served = serving()
	}
	c.mu.Lock()
	c.served = served
	var b []byte
	for i := range families {
		b = families[i].appendTo(b, c)
	}
	c.mu.Unlock()
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("telemetry: write metrics: %w", err)
	}
	return nil
}

// dest is a trace event's destination ranker, stored plus one so that
// the zero value means "no destination": omitempty then drops exactly
// the events that have none, and ranker 0 is written like any other.
type dest int

func to(ranker int) dest { return dest(ranker + 1) }

// MarshalJSON writes the ranker index.
func (d dest) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, int64(d)-1, 10), nil
}

// traceEvent is one line of the JSONL trace. T is the runtime clock
// minus the collector's first-event time (nanoseconds live, virtual
// units in-sim); zero-valued fields other than t and ranker are
// omitted.
type traceEvent struct {
	T       float64 `json:"t"`
	Ranker  int     `json:"ranker"`
	Event   string  `json:"event"`
	Round   int64   `json:"round,omitempty"`
	Inner   int     `json:"inner,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Resid   float64 `json:"residual,omitempty"`
	Dst     dest    `json:"dst,omitempty"`
	Links   int64   `json:"links,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	RelErr  float64 `json:"rel_err,omitempty"`
}

// DumpTrace writes the ring's events, oldest first, one JSON object per
// line.
func (c *Collector) DumpTrace(w io.Writer) error {
	c.mu.Lock()
	events := make([]traceEvent, min(c.traced, len(c.ring)))
	for i := range events {
		events[i] = c.ring[(c.traced-len(events)+i)%len(c.ring)]
	}
	c.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}
