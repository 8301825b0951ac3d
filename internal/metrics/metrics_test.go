package metrics

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

func TestSeriesAddLenLast(t *testing.T) {
	s := NewSeries("err")
	if s.Len() != 0 || s.Last() != 0 {
		t.Fatal("empty series not zero")
	}
	s.Add(1, 0.5)
	s.Add(2, 0.25)
	if s.Len() != 2 || s.Last() != 0.25 {
		t.Fatalf("len=%d last=%v", s.Len(), s.Last())
	}
	if s.Times[0] != 1 || s.Values[1] != 0.25 {
		t.Fatal("points stored wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewSeries("a")
	a.Add(1, 0.5)
	a.Add(2, 0.125)
	b := NewSeries("b")
	b.Add(1, 3)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,0.5,3" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	// Shorter series b leaves an empty cell.
	if lines[2] != "2,0.125," {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestWriteCSVNoSeries(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb); err == nil {
		t.Fatal("empty series list accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("N", "Time", "Bandwidth")
	tb.AddRow(1000, "7500s", "100KB/s")
	tb.AddRow(100000, "12000s", "1KB/s")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Bandwidth") || !strings.Contains(lines[3], "100000") {
		t.Fatalf("table content wrong:\n%s", out)
	}
	// Columns align: all lines equal length once trailing padding is
	// stripped consistently.
	for i := 1; i < len(lines); i++ {
		if len(strings.TrimRight(lines[i], " ")) > len(lines[0]) {
			t.Fatalf("misaligned line %d:\n%s", i, out)
		}
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatalf("short row missing:\n%s", out)
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v", got)
	}
}

type tagKind int

func (k tagKind) String() string { return [...]string{"alpha", "beta"}[k] }

type tagRow struct {
	Kind    tagKind `tab:"kind"`
	N       int     `tab:"n"`
	Share   float64 `tab:"share" pct:"%.0f%%"`
	At      float64 `tab:"at" fmt:"%.0f" neg:"never"`
	Budget  float64 `tab:"budget" fmt:"%.1f" zero:"unlimited"`
	Shed    int64   `tab:"shed"`
	ShedPct float64 `tab:"" pct:" (%.0f%%)"`
	hidden  int
	Untaged int
}

func TestTableOf(t *testing.T) {
	rows := []tagRow{
		{Kind: 1, N: 7, Share: 0.25, At: -1, Budget: 0, Shed: 50, ShedPct: 0.125},
		{Kind: 0, N: 8, Share: 1, At: 12.4, Budget: 2.5, Shed: 0},
	}
	for _, tb := range []*Table{TableOf(rows), TableOf([]*tagRow{&rows[0], &rows[1]})} {
		if want := []string{"kind", "n", "share", "at", "budget", "shed"}; !reflect.DeepEqual(tb.Header, want) {
			t.Fatalf("header %q, want %q", tb.Header, want)
		}
		want := [][]string{
			{"beta", "7", "25%", "never", "unlimited", "50 (12%)"},
			{"alpha", "8", "100%", "12", "2.5", "0 (0%)"},
		}
		if !reflect.DeepEqual(tb.Rows, want) {
			t.Fatalf("rows %q, want %q", tb.Rows, want)
		}
	}
	if tb := TableOf([]tagRow(nil)); len(tb.Header) != 6 || len(tb.Rows) != 0 {
		t.Fatalf("empty slice: %+v", tb)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("name", "note")
	tb.AddRow("a,b", `say "hi"`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"name", "note"}, {"a,b", `say "hi"`}}; !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip %q, want %q", back, want)
	}
}
