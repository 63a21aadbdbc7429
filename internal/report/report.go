// Package report renders the experiment harness's tables as fixed-width
// text, CSV, markdown and LaTeX for cmd/artifact.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table in aligned fixed-width form.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// RenderCSV writes the table as CSV (headers + rows; title and notes as
// comment lines). Cells containing commas, quotes, or newlines are
// quoted per RFC 4180 via encoding/csv.
func (t *Table) RenderCSV(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "# %s\n", t.Title)
	}
	cw := csv.NewWriter(w)
	cw.Write(t.Headers) //nolint:errcheck // surfaced by Flush below
	for _, row := range t.Rows {
		cw.Write(row) //nolint:errcheck
	}
	cw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", strings.ReplaceAll(n, "\n", " "))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float trimmed to a sensible precision for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.01 && v > -0.01:
		return fmt.Sprintf("%.4f", v)
	case v < 10 && v > -10:
		return fmt.Sprintf("%.3f", v)
	case v < 1000 && v > -1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Pct formats a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

// I formats an int.
func I(v int) string { return fmt.Sprintf("%d", v) }

// Dash is the placeholder for unreported values, matching the paper.
const Dash = "-"
