// Package metrics provides the small reporting toolkit used by the bench
// harness: aligned text tables and a log-linear histogram with its order
// statistics.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = cellWidth(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && cellWidth(c) > widths[i] {
				widths[i] = cellWidth(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// cellWidth measures a cell's display width in runes, not bytes —
// multi-byte cells like Ratio's "∞" would otherwise misalign columns.
// (Runes approximate display columns well enough for the harness's output;
// none of it uses combining marks or double-width scripts.)
func cellWidth(s string) int { return utf8.RuneCountInString(s) }

func pad(s string, w int) string {
	if cellWidth(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-cellWidth(s))
}

// Ratio formats a/b as "x.xx×", guarding division by zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// RenderMarkdown writes the table as GitHub-flavored markdown.
func (t *Table) RenderMarkdown(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "**%s**\n\n", t.Title)
	}
	row := func(cells []string) {
		fmt.Fprint(w, "|")
		for _, c := range cells {
			fmt.Fprintf(w, " %s |", c)
		}
		fmt.Fprintln(w)
	}
	row(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.rows {
		row(r)
	}
}
