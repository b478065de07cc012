package history

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mla/internal/model"
)

// writeBoot spools one boot's worth of events: each txn declares, steps
// once on its entity, and commits (except the listed pending ones).
func writeBoot(t *testing.T, path string, k int, commit []model.TxnID, pend []model.TxnID) {
	t.Helper()
	s, err := OpenSpoolFile(path, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(append([]model.TxnID(nil), commit...), pend...) {
		s.Declare(id, []string{"L2-C0"})
		s.StepPerformed(id, 1, "a", 0, 0)
	}
	for _, id := range commit {
		s.CommitGroup([]model.TxnID{id})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpoolRoundTrip: two boots appended to one file merge into a single
// validated history whose committed set is exactly the committed events.
func TestSpoolRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	writeBoot(t, path, 3, []model.TxnID{"e1-t0", "e1-t1"}, []model.TxnID{"e1-t2"})
	writeBoot(t, path, 3, []model.TxnID{"e2-t0"}, nil)

	h, err := ReadSpoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.K != 3 {
		t.Fatalf("k = %d, want 3", h.K)
	}
	if len(h.Levels) != 4 {
		t.Fatalf("%d level rows, want 4", len(h.Levels))
	}
	exec, _, err := h.Committed()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[model.TxnID]bool)
	for _, s := range exec {
		got[s.Txn] = true
	}
	for _, id := range []model.TxnID{"e1-t0", "e1-t1", "e2-t0"} {
		if !got[id] {
			t.Fatalf("committed %s missing from replay", id)
		}
	}
	if got["e1-t2"] {
		t.Fatal("pending e1-t2 (killed mid-flight) survived replay")
	}
}

// TestSpoolTornTail: a partial final line — the write the kill landed
// inside — is dropped by the reader and healed by the next writer.
func TestSpoolTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	writeBoot(t, path, 3, []model.TxnID{"e1-t0"}, nil)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append a torn line: half of a step event, no newline.
	torn := append(raw, []byte(`{"ts":9,"kind":"step","tx`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err := ReadSpoolFile(path)
	if err != nil {
		t.Fatalf("reader rejected a torn tail: %v", err)
	}
	if len(h.Events) != 2 {
		t.Fatalf("%d events, want 2 (step + commit)", len(h.Events))
	}

	// A writer reopening the file truncates the torn bytes before appending.
	writeBoot(t, path, 3, []model.TxnID{"e2-t0"}, nil)
	h2, err := ReadSpoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.Events) != 4 {
		t.Fatalf("%d events after heal+append, want 4", len(h2.Events))
	}
}

// TestSpoolMidStreamGarbageRejected: an unparseable line FOLLOWED by more
// data is corruption, not a torn tail.
func TestSpoolMidStreamGarbageRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	writeBoot(t, path, 3, []model.TxnID{"e1-t0"}, nil)
	raw, _ := os.ReadFile(path)
	bad := append(raw, []byte("not json\n{\"kind\":\"abort\",\"txn\":\"e1-t0\"}\n")...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpoolFile(path); err == nil {
		t.Fatal("reader accepted mid-stream garbage")
	}
}

// TestSpoolKMismatch: reopening with a different k is refused, and so is a
// stream whose headers disagree.
func TestSpoolKMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	writeBoot(t, path, 3, []model.TxnID{"e1-t0"}, nil)
	if _, err := OpenSpoolFile(path, 4); err == nil {
		t.Fatal("reopen with k=4 accepted over a k=3 spool")
	}
}

// TestSniffSpool distinguishes the two on-disk formats.
func TestSniffSpool(t *testing.T) {
	if !SniffSpool([]byte(`{"spool":"mla-history-spool/v1","k":4}` + "\n")) {
		t.Fatal("header not sniffed")
	}
	if SniffSpool([]byte(`{"format":"mla-history/v1","k":4}`)) {
		t.Fatal("native history sniffed as spool")
	}
	if SniffSpool([]byte("garbage")) {
		t.Fatal("garbage sniffed as spool")
	}
}

// TestSpoolValidateFailures: a step for an undeclared transaction fails
// validation on read.
func TestSpoolValidateFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	s, err := OpenSpoolFile(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.StepPerformed("ghost", 1, "a", 0, 0)
	s.Close()
	if _, err := ReadSpoolFile(path); err == nil || !strings.Contains(err.Error(), "missing from the level matrix") {
		t.Fatalf("undeclared step accepted (err %v)", err)
	}
}

// TestSpoolReopenReadsOnlyEnds: reopening a large spool with a torn tail
// reads its first line and its tail, not the whole file, and still heals.
func TestSpoolReopenReadsOnlyEnds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	writeBoot(t, path, 3, []model.TxnID{"e1-t0"}, nil)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"ts":1,"kind":"step","txn":"e1-t0","seq":1,"entity":"a"}` + "\n")
	raw = append(raw, bytes.Repeat(line, 8<<20/len(line))...)
	whole := int64(len(raw))
	if err := os.WriteFile(path, append(raw, `{"ts":9,"kind":"st`...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := OpenSpoolFile(path, 3)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reopening an 8 MiB spool allocated %d bytes", alloc)
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := `{"spool":"mla-history-spool/v1","k":3}` + "\n"
	if int64(len(healed)) != whole+int64(len(header)) || !strings.HasSuffix(string(healed), "\n"+header) {
		t.Fatalf("torn tail not healed: %d bytes, want %d ending in a new header", len(healed), whole+int64(len(header)))
	}
}
