package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mla/internal/coherent"
	"mla/internal/history"
)

var update = flag.Bool("update", false, "rewrite testdata/<scenario>.txt from this run")

// mlasim runs the command in process; it must exit 0. It returns stdout.
func mlasim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if status := run(args, &out, &errb); status != 0 {
		t.Fatalf("mlasim %s: exit %d, stderr:\n%s", strings.Join(args, " "), status, errb.String())
	}
	return out.String()
}

// audit judges a history as `mlacheck -witness` does: history.Check must
// find it correctable, and the Theorem 2 analysis must reach its verdict.
func audit(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := history.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := history.Check(h)
	if err != nil {
		t.Fatal(err)
	}
	exec, n, spec, err := h.Execution()
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherent.CheckExecution(exec, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correctable || res.Atomic != rep.Atomic || res.Correctable != rep.Correctable {
		t.Errorf("%s: history.Check %s; theorem 2 atomic=%v correctable=%v\n%s", path, rep.Summary(), res.Atomic, res.Correctable, rep.Witness)
	}
}

// TestChaosScenarios: the message-driven controls are deterministic in (seed,
// fault plan), so testdata/<scenario>.txt pins each output byte for byte;
// -check fails a non-correctable run, and shard histories must audit clean.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range []struct{ name, flags string }{
		{"dist-storm", "-control dist -txns 96 -seed 17 -loss 0.05 -partition 600 -procfail 2"},
		{"shard-clean", "-seed 7"},
		{"shard-loss", "-seed 11 -loss 0.08"},
		{"shard-partition", "-seed 13 -partition 600"},
		{"shard-storm", "-seed 17 -loss 0.05 -partition 600 -procfail 2"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(strings.Fields(sc.flags), "-check")
			scenario, isShard := strings.CutPrefix(sc.name, "shard-")
			hist := filepath.Join(dir, scenario+".json")
			if isShard {
				args = append(args, "-control", "shard", "-shards", "4", "-txns", "96", "-history", hist)
			}
			got := strings.ReplaceAll(mlasim(t, args...), dir+string(filepath.Separator), "")
			path := filepath.Join("testdata", sc.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if want, err := os.ReadFile(path); err != nil {
				t.Fatal(err)
			} else if got != string(want) {
				t.Errorf("output differs from %s (-update rewrites it):\n--- got\n%s--- want\n%s", path, got, want)
			}
			if isShard {
				audit(t, hist)
			}
		})
	}
}

// TestEngineHistoryAudits: live engine histories, with and without crashes,
// audit clean; mlasim itself checks they commit what the run made durable.
func TestEngineHistoryAudits(t *testing.T) {
	for _, flags := range []string{"-engine", "-engine -crashes 2 -seed 1", "-engine -crashes 2 -seed 2", "-engine -crashes 2 -seed 3"} {
		t.Run(flags, func(t *testing.T) {
			hist := filepath.Join(t.TempDir(), "history.json")
			mlasim(t, append(strings.Fields(flags), "-history", hist)...)
			audit(t, hist)
		})
	}
}

// TestEngineTelemetryCounters: -telemetry prints the engine's counts and the
// control's counters, folded once at the end of the run, on the plain engine
// path and across crash rounds; engine_committed is the number of
// transactions the written history commits. The deeper tear of the third
// run makes crashed rounds lose commits they made in memory, which then
// commit again in a later round, so a count of announcements would exceed
// the durable one.
func TestEngineTelemetryCounters(t *testing.T) {
	for _, flags := range []string{
		"-workload bank -control 2pl -engine",
		"-workload bank -control 2pl -engine -crashes 2",
		"-workload bank -control 2pl -engine -crashes 2 -seed 3 -tear 4",
	} {
		t.Run(flags, func(t *testing.T) {
			hist := filepath.Join(t.TempDir(), "history.json")
			m := make(map[string]int64)
			for _, line := range strings.Split(mlasim(t, append(strings.Fields(flags), "-telemetry", "-history", hist)...), "\n") {
				if name, val, ok := strings.Cut(line, " "); ok {
					if v, err := strconv.ParseInt(val, 10, 64); err == nil {
						m[name] = v
					}
				}
			}
			if m["engine_committed"] == 0 || m["engine_steps"] < m["engine_committed"] || m["engine_cuts"] == 0 {
				t.Errorf("engine_committed %d, engine_steps %d, engine_cuts %d", m["engine_committed"], m["engine_steps"], m["engine_cuts"])
			}
			// The fold counts durable commits, not announcements, which
			// repeat when a torn group is redone after a crash.
			if committed := historyCommits(t, hist); m["engine_committed"] != int64(committed) {
				t.Errorf("engine_committed %d, but the history commits %d transactions", m["engine_committed"], committed)
			}
			if strings.Contains(flags, "-crashes") {
				if m["engine_crashes"] != 2 {
					t.Errorf("engine_crashes %d, want 2", m["engine_crashes"])
				}
			} else if m["control_2pl_requests"] < m["engine_steps"] {
				t.Errorf("control_2pl_requests %d < engine_steps %d", m["control_2pl_requests"], m["engine_steps"])
			}
		})
	}
}

// historyCommits returns how many transactions the history at path commits.
func historyCommits(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := history.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	_, descs, err := h.Committed()
	if err != nil {
		t.Fatal(err)
	}
	return len(descs)
}

// TestUsageErrorsLeaveNothingBehind: a usage error exits 2 before the first
// side effect — no output, no profile or trace file, no profiler running.
func TestUsageErrorsLeaveNothingBehind(t *testing.T) {
	for _, flags := range []string{
		"-workload bogus",
		"-control bogus",
		"-control shard -shards 0",
		"-loss 0.1",
		"-control dist -engine",
		"-crashes 1",
		"-errrate 0.1",
		"-engine -partial",
		"-control dist -loss 1",
		"-control dist -loss 2",
		"-control shard -loss 2",
		"-control dist -loss -0.1",
		"-control dist -reorder 1.5",
		"-control dist -reorder -0.1",
		"-engine -errrate 1",
		"-engine -errrate 5",
		"-engine -errrate -0.1",
		"-txns -3",
		"-delay -1",
		"-tear -4",
		"-crashes -2",
		"-procfail -1",
	} {
		dir := t.TempDir()
		var out, errb bytes.Buffer
		status := run(append(strings.Fields(flags), "-pprof", filepath.Join(dir, "p"), "-trace-out", filepath.Join(dir, "t.json")), &out, &errb)
		if left, _ := os.ReadDir(dir); status != 2 || out.Len() != 0 || !strings.HasPrefix(errb.String(), "mlasim: ") || len(left) != 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q, %d files left; want exit 2 and only a diagnostic", flags, status, out.String(), errb.String(), len(left))
		}
	}
}
