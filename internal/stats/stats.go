// Package stats provides the counters, ratio helpers, summary statistics,
// and plain-text table formatting used by every experiment in the
// reproduction. Keeping formatting here means each figure/table prints
// through one code path and EXPERIMENTS.md rows are uniform.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Ratio returns num/den as a float, and 0 when den is 0. All hit rates and
// accuracies in the simulator route through this so empty runs are safe.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny positive value so one degenerate benchmark cannot NaN a
// suite average; speedup aggregation in the paper's style uses this.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Table accumulates rows of labeled values and renders an aligned
// plain-text table — the output format for every reproduced figure/table.
type Table struct {
	title   string
	columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{title: title, columns: columns}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with a title line, a header, and aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row then data rows;
// cells containing commas or quotes are quoted). Experiment tooling uses
// this for machine-readable exports of every figure.
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
	writeRow(t.columns)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
