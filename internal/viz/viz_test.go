package viz

import (
	"strings"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
)

func sampleExec() model.Execution {
	return model.Execution{
		{Txn: "t1", Seq: 1, Entity: "A", Label: "withdraw", Before: 100, After: 90},
		{Txn: "t2", Seq: 1, Entity: "B", Label: "read", Before: 5, After: 5},
		{Txn: "t1", Seq: 2, Entity: "acct/f0/a1", Label: "deposit", Before: 0, After: 10},
	}
}

func TestTimelineBasics(t *testing.T) {
	out := Timeline(sampleExec(), nil, Options{})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lanes, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "t1") || !strings.HasPrefix(lines[1], "t2") {
		t.Errorf("lane order wrong:\n%s", out)
	}
	if !strings.Contains(lines[0], "with(A)") {
		t.Errorf("missing step cell:\n%s", out)
	}
	// Hierarchical entity names are shortened to the last component.
	if !strings.Contains(lines[0], "(a1)") {
		t.Errorf("entity not shortened:\n%s", out)
	}
	// Transaction ends are marked.
	if strings.Count(out, "│") != 2 {
		t.Errorf("want 2 end markers:\n%s", out)
	}
}

func TestTimelineBreakpointMarkers(t *testing.T) {
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	out := Timeline(sampleExec(), spec, Options{})
	// t1 has an interior boundary after step 1: marker ╫2.
	if !strings.Contains(out, "╫2") {
		t.Errorf("missing breakpoint marker:\n%s", out)
	}
}

func TestTimelineTruncation(t *testing.T) {
	out := Timeline(sampleExec(), nil, Options{Width: 2})
	if !strings.Contains(out, "1 more steps") {
		t.Errorf("missing truncation note:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if got := Timeline(nil, nil, Options{}); !strings.Contains(got, "empty") {
		t.Errorf("empty rendering = %q", got)
	}
}
