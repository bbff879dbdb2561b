// Package bench implements the experiments (see DESIGN.md §2): each
// regenerates a results table whose *shape* reproduces the
// corresponding figure, theorem or design claim, and a test asserts
// that shape. E1–E12 are one function per table; E14 onward are
// configurations of the shared harness in harness.go. registry.go
// lists them all; cmd/tcvs-bench runs them; EXPERIMENTS.md records the
// outcomes.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result table.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Columns  []string
	Rows     [][]string
	Notes    []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	if t.PaperRef != "" {
		fmt.Fprintf(w, "reproduces: %s\n", t.PaperRef)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
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

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// boolMark renders pass/fail cells uniformly.
func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
