package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentExitsTwo: an -exp that names no experiment is a
// usage error listing the valid IDs, never an empty success — otherwise a
// mistyped or renumbered ID would let a gate that runs one experiment pass
// vacuously.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	for _, id := range []string{"E99", "e5"} {
		var out, errb bytes.Buffer
		if status := run([]string{"-exp", id}, &out, &errb); status != 2 {
			t.Errorf("-exp %s: exit %d, want 2", id, status)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s printed a table:\n%s", id, out.String())
		}
		if msg := errb.String(); !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "E1 ") || !strings.Contains(msg, " E20 ") {
			t.Errorf("-exp %s: stderr does not list the valid IDs: %s", id, msg)
		}
	}
}

// TestE20CrossChecksEveryControl runs E20, which checks the black-box
// history checker against the Theorem 2 analysis over mixed-level runs on
// every control and fails on any disagreement.
func TestE20CrossChecksEveryControl(t *testing.T) {
	var out, errb bytes.Buffer
	if status := run([]string{"-exp", "E20", "-scale", "1"}, &out, &errb); status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, errb.String())
	}
	if !strings.HasPrefix(out.String(), "E20 — ") {
		t.Errorf("no E20 table:\n%s", out.String())
	}
}
