package metrics

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.Row("alpha", 1)
	tbl.Row("b", 123.456)
	out := tbl.String()
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "123.46") {
		t.Errorf("missing cells:\n%s", out)
	}
	// Columns aligned: the header row and data rows share prefix widths.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(3, 2) != "1.50x" {
		t.Errorf("Ratio = %s", Ratio(3, 2))
	}
	if Ratio(1, 0) != "∞" {
		t.Errorf("Ratio by zero = %s", Ratio(1, 0))
	}
}

// TestRenderAlignsNonASCII: column widths must be measured in runes, not
// bytes — Ratio's "∞" is three bytes wide in UTF-8 but one display column,
// so byte-based padding shifts every cell after it.
func TestRenderAlignsNonASCII(t *testing.T) {
	tbl := NewTable("", "control", "ratio", "note")
	tbl.Row("prevent", Ratio(1, 0), "zero baseline") // "∞"
	tbl.Row("detect", Ratio(3, 2), "ok")             // "1.50x"
	tbl.Row("naïve-2pl", "10.00x", "é")              // non-ASCII in other columns too
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	want := utf8.RuneCountInString(lines[0])
	for i, ln := range lines {
		if got := utf8.RuneCountInString(ln); got != want {
			t.Errorf("line %d is %d runes wide, header row is %d:\n%s", i, got, want, out)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := NewTable("demo", "a", "b")
	tbl.Row(1, "x")
	var buf strings.Builder
	tbl.RenderMarkdown(&buf)
	out := buf.String()
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "| --- | --- |") || !strings.Contains(out, "| 1 | x |") {
		t.Errorf("markdown:\n%s", out)
	}
}
