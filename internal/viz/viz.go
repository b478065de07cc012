// Package viz renders executions as per-transaction timelines: one lane per
// transaction, steps in global order, with breakpoint coarseness markers.
// Used by the examples and cmd/mlacheck to make interleavings and their
// breakpoint structure visible at a glance.
//
//	t1   w(A)──w(B)─╫2──────────────d(C)──d(D)│
//	t2   ──────────────w(A)──w(C)─╫2──────────d(E)…
//
// ╫n marks a breakpoint of coarseness n after the preceding step; │ marks
// the end of the transaction.
package viz

import (
	"fmt"
	"strings"

	"mla/internal/breakpoint"
	"mla/internal/model"
)

// Options control the rendering.
type Options struct {
	// Width truncates the timeline after this many global steps (0 = all).
	Width int
}

// Timeline renders the execution as one lane per transaction. spec may be
// nil, in which case no breakpoint markers are drawn.
func Timeline(e model.Execution, spec breakpoint.Spec, opts Options) string {
	if len(e) == 0 {
		return "(empty execution)\n"
	}
	n := len(e)
	if opts.Width > 0 && opts.Width < n {
		n = opts.Width
	}

	txns := e.Txns()
	lane := make(map[model.TxnID]int, len(txns))
	for i, t := range txns {
		lane[t] = i
	}

	// Per-transaction step prefixes for breakpoint queries.
	prefixes := make(map[model.TxnID][]model.Step)
	counts := make(map[model.TxnID]int)
	for _, s := range e {
		counts[s.Txn]++
	}

	// Build cells: cells[lane][pos].
	cells := make([][]string, len(txns))
	for i := range cells {
		cells[i] = make([]string, n)
	}
	width := 0
	for pos := 0; pos < n; pos++ {
		s := e[pos]
		cell := stepCell(s, opts)
		prefixes[s.Txn] = append(prefixes[s.Txn], s)
		if len(prefixes[s.Txn]) < counts[s.Txn] && spec != nil {
			cell += fmt.Sprintf("╫%d", spec.CutAfter(s.Txn, prefixes[s.Txn]))
		} else if len(prefixes[s.Txn]) == counts[s.Txn] {
			cell += "│"
		}
		cells[lane[s.Txn]][pos] = cell
		if w := cellWidth(cell); w > width {
			width = w
		}
	}

	nameW := 0
	for _, t := range txns {
		if len(t) > nameW {
			nameW = len(string(t))
		}
	}

	var b strings.Builder
	for li, t := range txns {
		b.WriteString(pad(string(t), nameW))
		b.WriteString("  ")
		for pos := 0; pos < n; pos++ {
			c := cells[li][pos]
			if c == "" {
				b.WriteString(strings.Repeat("─", width))
			} else {
				b.WriteString(c)
				if w := cellWidth(c); w < width {
					b.WriteString(strings.Repeat("─", width-w))
				}
			}
		}
		b.WriteString("\n")
	}
	if opts.Width > 0 && opts.Width < len(e) {
		fmt.Fprintf(&b, "… %d more steps\n", len(e)-opts.Width)
	}
	return b.String()
}

func stepCell(s model.Step, opts Options) string {
	op := s.Label
	if op == "" {
		op = "op"
	}
	if len(op) > 4 {
		op = op[:4]
	}
	return fmt.Sprintf("%s(%s)", op, shortEntity(s.Entity))
}

// shortEntity keeps the last path component of hierarchical entity names.
func shortEntity(x model.EntityID) string {
	s := string(x)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if len(s) > 8 {
		s = s[:8]
	}
	return s
}

// cellWidth counts display runes (the box-drawing characters are single
// width).
func cellWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
