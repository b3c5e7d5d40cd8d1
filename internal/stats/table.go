package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table renders experiment results as aligned text, the way the paper's
// tables and per-workload bar charts are reported by the harness.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; cells beyond the column count are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each value with %v for strings and
// ints, and two decimals for floats.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, FormatFloat(v))
		case float32:
			row = append(row, FormatFloat(float64(v)))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", width[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", max(total-2, 1)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// FormatFloat renders a float with two decimals, trimming noise.
func FormatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// GeoMean reports the geometric mean of vs, ignoring non-positive
// entries; 0 when nothing qualifies. The paper reports both arithmetic
// and geometric means for its per-workload speedups.
func GeoMean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean reports the arithmetic mean, 0 for empty input.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// CSV renders the table as RFC-4180-style CSV (header row + data rows),
// for plotting the figures outside the harness.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
