package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// execCLI runs the CLI with captured output and returns (status, stdout, stderr).
func execCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return execCLIStdin(t, "", args...)
}

func execCLIStdin(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	status := run(args, strings.NewReader(stdin), &out, &errb)
	return status, out.String(), errb.String()
}

// write drops content into a temp file and returns its path.
func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sampleHistory is the -sample output, so the check paths below exercise
// the same bytes the tool itself emits.
func sampleHistory(t *testing.T) string {
	t.Helper()
	status, out, errs := execCLI(t, "-sample")
	if status != 0 {
		t.Fatalf("-sample exited %d: %s", status, errs)
	}
	return out
}

func TestCheckSampleTrace(t *testing.T) {
	status, out, errs := execCLI(t, write(t, "sample.json", sampleHistory(t)))
	if status != 0 {
		t.Fatalf("checking the sample history exited %d: %s", status, errs)
	}
	if !strings.Contains(out, "ATOMIC") {
		t.Errorf("sample verdict missing:\n%s", out)
	}
}

// TestOneInputPath: -history F, a positional F and stdin are the same
// path — same bytes in, same report out.
func TestOneInputPath(t *testing.T) {
	sample := sampleHistory(t)
	path := write(t, "sample.json", sample)
	_, want, _ := execCLI(t, "-stats", path)
	for name, got := range map[string]func() (int, string, string){
		"-history F":      func() (int, string, string) { return execCLI(t, "-stats", "-history", path) },
		"stdin, bare":     func() (int, string, string) { return execCLIStdin(t, sample, "-stats") },
		"stdin, -":        func() (int, string, string) { return execCLIStdin(t, sample, "-stats", "-") },
		"stdin, -history": func() (int, string, string) { return execCLIStdin(t, sample, "-stats", "-history", "-") },
	} {
		status, out, errs := got()
		if status != 0 || out != want {
			t.Errorf("%s: exit %d (stderr %q), output differs from the positional run:\n%s", name, status, errs, out)
		}
	}
}

// Regression: malformed input must produce a diagnostic and exit 1, never a
// panic or a silent 0.
func TestMalformedInputs(t *testing.T) {
	cases := map[string]string{
		"not json":          `{oops`,
		"empty object":      `{}`,
		"bad k":             `{"format": "mla-history/v1", "k": 1, "levels": {}, "events": []}`,
		"step missing txn":  `{"format": "mla-history/v1", "k": 2, "levels": {}, "events": [{"kind": "step", "txn": "ghost", "seq": 1, "entity": "x"}]}`,
		"step zero seq":     `{"format": "mla-history/v1", "k": 2, "levels": {"t1": []}, "events": [{"kind": "step", "txn": "t1", "seq": 0, "entity": "x"}]}`,
		"cut out of range":  `{"format": "mla-history/v1", "k": 2, "levels": {"t1": []}, "events": [{"kind": "step", "txn": "t1", "seq": 1, "entity": "x", "cut": 9}]}`,
		"wrong label arity": `{"format": "mla-history/v1", "k": 3, "levels": {"t1": []}, "events": [{"kind": "step", "txn": "t1", "seq": 1, "entity": "x"}]}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			status, _, errs := execCLI(t, "-witness", write(t, "bad.json", content))
			if status != 1 {
				t.Errorf("exit = %d, want 1 (stderr: %s)", status, errs)
			}
			if !strings.Contains(errs, "mlacheck:") {
				t.Errorf("no diagnostic on stderr: %q", errs)
			}
		})
	}
}

func TestMissingFileExitsOne(t *testing.T) {
	status, _, errs := execCLI(t, filepath.Join(t.TempDir(), "nope.json"))
	if status != 1 {
		t.Errorf("exit = %d, want 1", status)
	}
	if errs == "" {
		t.Error("no diagnostic for a missing file")
	}
}

// Regression: -sample used to accept (and ignore) a file argument; it must
// be a usage error, as must combining it with -history, or naming two inputs.
func TestUsageContradictions(t *testing.T) {
	cases := [][]string{
		{"-sample", "trace.json"},
		{"-sample", "-history", "h.json"},
		{"-history", "h.json", "extra.json"},
		{"-nosuchflag"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			status, _, _ := execCLI(t, args...)
			if status != 2 {
				t.Errorf("exit = %d, want 2", status)
			}
		})
	}
}

// TestHistoryViolationsExitTwo: every crafted violation exits 2 with the
// black-box witness cycle — and, with -witness, under the white-box
// analysis too (it must agree, and has no atomic witness to print).
func TestHistoryViolationsExitTwo(t *testing.T) {
	paths, err := filepath.Glob("../../internal/history/testdata/violation_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("want >= 3 violating testdata histories, found %d", len(paths))
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			status, out, errs := execCLI(t, "-history", p)
			if status != 2 {
				t.Errorf("exit = %d, want 2 (stderr: %s)", status, errs)
			}
			if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "witness cycle") {
				t.Errorf("violation output missing verdict or witness:\n%s", out)
			}
			status, out, errs = execCLI(t, "-witness", "-history", p)
			if status != 2 {
				t.Errorf("-witness: exit = %d, want 2 (stderr: %s)", status, errs)
			}
			if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "correctable=false") || strings.Contains(out, "witness (") {
				t.Errorf("-witness: want both deciders' rejections and no atomic witness:\n%s", out)
			}
		})
	}
}

func TestHistoryAcceptExitsZero(t *testing.T) {
	status, out, errs := execCLI(t, "-history", "../../internal/history/testdata/accept_mixed.json")
	if status != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", status, errs)
	}
	if !strings.Contains(out, "ATOMIC") && !strings.Contains(out, "CORRECTABLE") {
		t.Errorf("no verdict printed:\n%s", out)
	}
}

func TestHistoryMalformedExitsOne(t *testing.T) {
	cases := map[string]string{
		"not json":        `{oops`,
		"wrong format":    `{"format": "mystery/v9", "k": 2, "levels": {}, "events": []}`,
		"no step lanes":   `{"traceEvents": [{"name": "run", "cat": "run", "ph": "X", "ts": 0, "dur": 5, "pid": 1, "tid": 0}]}`,
		"unrecognized":    `{"hello": "world"}`,
		"invalid history": `{"format": "mla-history/v1", "k": 1, "levels": {}, "events": []}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			status, _, errs := execCLI(t, "-history", write(t, "h.json", content))
			if status != 1 {
				t.Errorf("exit = %d, want 1 (stderr: %s)", status, errs)
			}
			if !strings.Contains(errs, "mlacheck:") {
				t.Errorf("no diagnostic on stderr: %q", errs)
			}
		})
	}
}

func TestHistoryMissingFileExitsOne(t *testing.T) {
	status, _, _ := execCLI(t, "-history", filepath.Join(t.TempDir(), "nope.json"))
	if status != 1 {
		t.Errorf("exit = %d, want 1", status)
	}
}

// TestWitnessAndStatsFlags: `-sample | -witness -stats -tree -timeline -`
// round-trips, printing both deciders' verdicts and every view.
func TestWitnessAndStatsFlags(t *testing.T) {
	status, out, errs := execCLIStdin(t, sampleHistory(t), "-witness", "-stats", "-tree", "-timeline", "-")
	if status != 0 {
		t.Fatalf("exit = %d: %s", status, errs)
	}
	for _, want := range []string{"ATOMIC", "theorem 2:", "correctable=true", "witness (", "per-transaction:", "nested action tree:", "timeline:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSpoolInput: the JSONL spool a server appends is sniffed and judged
// like any other history, views included.
func TestSpoolInput(t *testing.T) {
	spool := `{"spool":"mla-history-spool/v1","k":2}
{"decl":"t1","levels":[]}
{"kind":"step","txn":"t1","seq":1,"entity":"x"}
{"kind":"commit","txns":["t1"]}
`
	status, out, errs := execCLI(t, "-witness", write(t, "h.spool", spool))
	if status != 0 {
		t.Fatalf("exit = %d: %s", status, errs)
	}
	if !strings.Contains(out, "spool:") || !strings.Contains(out, "t1[1]") {
		t.Errorf("spool verdict or witness missing:\n%s", out)
	}
}
