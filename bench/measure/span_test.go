package measure

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: concurrent compute phases
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 4, Parent: 2, Start: 25, End: 35},  // a grandchild takes nothing from span 0
	}
	self := SelfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	want := []int64{50, 20, 20, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin(-1, "layer", "name")
	r.End(id, 1)
	if r.Add(-1, "layer", "name", 0, 1, 0) != -1 || r.Spans() != nil {
		t.Fatal("a nil recorder recorded a span")
	}
	if err := r.WriteJSON(filepath.Join(t.TempDir(), "never")); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderWritesSpansWithSelfTime(t *testing.T) {
	r := NewRecorder()
	root := r.Begin(-1, "bench", "root")
	r.Add(root, "dprcore", "compute", r.spans[root].Start, r.spans[root].Start+5, 3)
	r.End(root, 7)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Layer  string `json:"layer"`
		Self   int64  `json:"self_ns"`
		Count  int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Parent != root || rows[1].Layer != "dprcore" || rows[1].Self != 5 || rows[0].Count != 7 {
		t.Fatalf("unexpected trace file: %+v", rows)
	}
}
