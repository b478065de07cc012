package bench

import (
	"context"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.txt from this run")

// TestAllExperimentsRun executes every experiment at scale 1 and sanity
// checks the tables. This doubles as the end-to-end regression test for the
// harness: several experiments fail loudly (return an error) when a
// soundness property breaks, e.g. E4's "serializable but not
// MLA-correctable", E5/E7's invariant checks, or E10's sound-preventer
// check. The tables without a wall-clock column (E5–E7, E10–E16, E18, E20)
// are also pinned byte for byte by testdata/<ID>.txt.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tbl, err := ex.Run(Config{Scale: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Len() == 0 {
				t.Fatal("empty table")
			}
			if tbl.String() == "" {
				t.Fatal("empty rendering")
			}
			path := filepath.Join("testdata", ex.ID+".txt")
			want, err := os.ReadFile(path)
			if errors.Is(err, fs.ErrNotExist) {
				return
			} else if err != nil {
				t.Fatal(err)
			}
			got := ex.ID + " — " + ex.Claim + "\n" + tbl.String() + "\n"
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if got != string(want) {
				t.Errorf("table differs from %s (rerun with -update if the change is meant):\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}

func TestE1NeverDisagrees(t *testing.T) {
	tbl, err := E1Equivalence(Config{Scale: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Every row's "disagree" column (last) must be 0.
	for _, line := range strings.Split(strings.TrimSpace(tbl.String()), "\n")[3:] {
		fields := strings.Fields(line)
		if fields[len(fields)-1] != "0" {
			t.Errorf("disagreement row: %s", line)
		}
	}
}

func TestE2AllExamplesPass(t *testing.T) {
	tbl, err := E2PaperExamples(Config{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tbl.String(), "false\n") {
		// The ok column would read "false" on a failing example.
		for _, line := range strings.Split(tbl.String(), "\n") {
			if strings.HasSuffix(strings.TrimSpace(line), "false") {
				t.Errorf("paper example failed: %s", line)
			}
		}
	}
}

func TestE10ChainDetectsUnsoundness(t *testing.T) {
	ok, err := chainScenarioCorrectable(context.Background(), "prevent")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("sound preventer must admit only correctable executions on the chain")
	}
	ok, err = chainScenarioCorrectable(context.Background(), "prevent-direct")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("the direct-only ablation should admit the non-correctable chain (that is its purpose)")
	}
}

func TestWindowedInterleaveCompletes(t *testing.T) {
	wl := bankWorkload(2, 3, 4, 1, 3)
	rng := Config{Seed: 5}.rng()
	e, err := windowedInterleave(wl.Programs, copyInit(wl.Init), rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(wl.Init); err != nil {
		t.Fatal(err)
	}
	// Zero switching yields a serial execution.
	e0, err := windowedInterleave(wl.Programs, copyInit(wl.Init), rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var last string
	for _, s := range e0 {
		id := string(s.Txn)
		if id != last && seen[id] {
			t.Fatal("switch%=0 must produce a serial execution")
		}
		seen[id] = true
		last = id
	}
}

func TestControlByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown control must panic")
		}
	}()
	controlByName("bogus", nil, nil)
}
