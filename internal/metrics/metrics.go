// Package metrics holds the small result-recording utilities the
// experiment harness shares: named time series (the curves of Figures
// 6–8) and fixed-width tables (Table 1), with CSV and plain-text
// rendering.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Series is one named curve: parallel time and value slices.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one point.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// Percentile returns the p-th percentile (0–100) of samples by
// nearest-rank on a sorted copy; the input is not modified. Zero
// samples yield 0.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Last returns the final value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// WriteCSV renders series sharing a time axis as CSV: a time column
// followed by one column per series. Series may have different lengths;
// missing cells are left empty. The time column comes from the longest
// series.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("metrics: no series")
	}
	longest := series[0]
	for _, s := range series[1:] {
		if s.Len() > longest.Len() {
			longest = s
		}
	}
	header := make([]string, 0, len(series)+1)
	header = append(header, "time")
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i := 0; i < longest.Len(); i++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, formatFloat(longest.Times[i]))
		for _, s := range series {
			if i < s.Len() {
				row = append(row, formatFloat(s.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// Table is a column-aligned text table that also renders as CSV.
type Table struct {
	// Title, when set, is printed above the table by whoever lays out
	// several tables in one report.
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are stringified with %v. Rows shorter or
// longer than the header are padded or truncated at render time.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// TableOf builds a table from a slice of structs (or struct pointers):
// one column per field tagged `tab:"header"`, in field order; untagged
// fields are not shown. Further keys of the same field tag shape the
// cell:
//
//	fmt:"%.1f"        the fmt verb (default %v, so Stringers print their names)
//	pct:"%.0f%%"      instead of fmt: format 100× the value, a fraction shown as a percentage
//	neg:"never"       text shown in place of a negative number
//	zero:"unlimited"  text shown in place of a zero
//
// A field tagged with an empty header appends to the cell before it
// ("50" + " (12%)").
func TableOf(rows any) *Table {
	v := reflect.ValueOf(rows)
	typ := v.Type().Elem()
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	t := &Table{}
	var fields []int
	for i := 0; i < typ.NumField(); i++ {
		if header, ok := typ.Field(i).Tag.Lookup("tab"); ok {
			fields = append(fields, i)
			if header != "" {
				t.Header = append(t.Header, header)
			}
		}
	}
	for r := 0; r < v.Len(); r++ {
		row := reflect.Indirect(v.Index(r))
		cells := make([]string, 0, len(t.Header))
		for _, i := range fields {
			cell := formatCell(row.Field(i), typ.Field(i).Tag)
			if typ.Field(i).Tag.Get("tab") == "" {
				cells[len(cells)-1] += cell
			} else {
				cells = append(cells, cell)
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

func formatCell(v reflect.Value, tag reflect.StructTag) string {
	format := tag.Get("fmt")
	if format == "" {
		format = "%v"
	}
	var num float64
	switch {
	case v.CanInt():
		num = float64(v.Int())
	case v.CanUint():
		num = float64(v.Uint())
	case v.CanFloat():
		num = v.Float()
	default:
		return fmt.Sprintf(format, v.Interface())
	}
	if alt, ok := tag.Lookup("neg"); ok && num < 0 {
		return alt
	}
	if alt, ok := tag.Lookup("zero"); ok && num == 0 {
		return alt
	}
	if pct, ok := tag.Lookup("pct"); ok {
		return fmt.Sprintf(pct, 100*num)
	}
	return fmt.Sprintf(format, v.Interface())
}

// WriteCSV renders the table as CSV: the header, then one record per
// row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows) // flushes
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	width := make([]int, cols)
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i := 0; i < cols && i < len(row); i++ {
			if len(row[i]) > width[i] {
				width[i] = len(row[i])
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
