package measure

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is the span that
// caused this one (-1 for a root); Count carries the work the span
// covered (events, queries, chunks) when there is one.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// Recorder keeps spans in memory until the run ends. It is used from
// one goroutine; concurrent layers (the rankers' compute phases)
// record into their own slots and are merged in with Add. A nil
// Recorder records nothing, which is how the untraced runs call the
// same code.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, 1024)}
}

// Since converts a wall-clock instant to the recorder's time base.
func (r *Recorder) Since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Begin opens a span under parent and returns its id.
func (r *Recorder) Begin(parent int32, layer, name string) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Start: r.Since(time.Now())})
	return id
}

// End closes span id, attaching the amount of work it covered.
func (r *Recorder) End(id int32, count int64) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = r.Since(time.Now())
	r.spans[id].Count = count
}

// Add appends a span timed elsewhere (start and end already in the
// recorder's time base) and returns its id.
func (r *Recorder) Add(parent int32, layer, name string, start, end, count int64) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: end, Count: count})
	return id
}

// Spans returns what has been recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteJSON writes the spans, with each span's self time, to path.
func (r *Recorder) WriteJSON(path string) error {
	if r == nil {
		return nil
	}
	self := SelfTimes(r.spans)
	type out struct {
		Span
		Self int64 `json:"self_ns"`
	}
	rows := make([]out, len(r.spans))
	for i, s := range r.spans {
		rows[i] = out{Span: s, Self: self[i]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns, per span (indexed by ID), its duration minus the
// part of its interval that its direct children cover. Children may
// overlap one another (concurrent compute phases) and are clipped to
// the parent, so the covered part is the length of their union.
func SelfTimes(spans []Span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
