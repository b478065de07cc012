package history

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mla/internal/model"
	"mla/internal/nest"
)

// feed drives a recorder the way the engine does: every commit group is
// passed in one reused buffer, which is overwritten as soon as the call
// returns.
func feed(r *Recorder) {
	buf := make([]model.TxnID, 0, 4)
	group := func(ids ...model.TxnID) {
		buf = append(buf[:0], ids...)
		r.CommitGroup(buf)
		for i := range buf {
			buf[i] = "reused"
		}
	}
	r.Declare("t1", []string{"A"})
	r.Declare("t2", []string{"A"})
	r.Declare("t3", []string{"B"})
	r.StepPerformed("t1", 1, "x", 0, 3)
	r.StepPerformed("t2", 1, "y", 0, 0)
	r.TxnAborted("t3", false)
	group("t1", "t2")
	r.StepPerformed("t3", 1, "x", 0, 0)
	group("t3")
}

func feedNest() *nest.Nest {
	n := nest.New(3)
	n.Add("t1", "A")
	n.Add("t2", "A")
	n.Add("t3", "B")
	return n
}

// TestCommitGroupCopiesTheBorrowedBuffer: the engine lends its group buffer
// for the call only, so overwriting it afterwards must leave the recorded
// history as it was.
func TestCommitGroupCopiesTheBorrowedBuffer(t *testing.T) {
	r := NewRecorder(feedNest())
	feed(r)
	h := r.History()
	var groups [][]model.TxnID
	for _, ev := range h.Events {
		if ev.Kind == KindCommit {
			groups = append(groups, ev.Txns)
		}
	}
	if want := [][]model.TxnID{{"t1", "t2"}, {"t3"}}; !reflect.DeepEqual(groups, want) {
		t.Fatalf("commit groups %v, want %v", groups, want)
	}
	if !reflect.DeepEqual(r.History(), h) {
		t.Fatal("a second snapshot differs from the first")
	}
}

// TestCommitGroupTxnsAreCapped: groups share the recorder's id chunk, yet
// appending to one event's Txns must not reach the next event's.
func TestCommitGroupTxnsAreCapped(t *testing.T) {
	r := NewRecorder(feedNest())
	r.CommitGroup([]model.TxnID{"t1"})
	r.CommitGroup([]model.TxnID{"t2", "t3"})
	h := r.History()
	_ = append(h.Events[0].Txns, "grown")
	if got := r.History().Events[1].Txns; !reflect.DeepEqual(got, []model.TxnID{"t2", "t3"}) {
		t.Fatalf("the next group reads %v after an append to the one before", got)
	}
}

// TestCommitGroupAllocatesNothing: an in-memory recorder keeps commit
// groups in a chunked id arena, so recording one allocates only as the
// chunk and the event log grow.
func TestCommitGroupAllocatesNothing(t *testing.T) {
	const runs = 10000
	ids := make([]model.TxnID, runs+1)
	n := nest.New(2)
	for i := range ids {
		ids[i] = model.TxnID(fmt.Sprintf("t%d", i))
		n.Add(ids[i])
	}
	r := NewRecorder(n)
	buf := make([]model.TxnID, 1)
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		buf[0] = ids[i]
		r.CommitGroup(buf)
		i++
	}); got != 0 {
		t.Fatalf("%.2f allocations per CommitGroup, want 0", got)
	}
	if evs := r.History().Events; len(evs) != runs+1 || evs[runs].Txns[0] != ids[runs] {
		t.Fatalf("recorded %d groups, want %d", len(evs), runs+1)
	}
}

// TestSpoolLinesUnchanged pins a file-backed recorder's lines byte for
// byte: it writes the caller's group as given, and the buffer's reuse after
// the call changes nothing already written.
func TestSpoolLinesUnchanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.spool")
	r, err := OpenSpoolFile(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	feed(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"spool":"mla-history-spool/v1","k":3}
{"decl":"t1","levels":["A"]}
{"decl":"t2","levels":["A"]}
{"decl":"t3","levels":["B"]}
{"kind":"step","txn":"t1","seq":1,"entity":"x","cut":3}
{"ts":1,"kind":"step","txn":"t2","seq":1,"entity":"y"}
{"ts":2,"kind":"abort","txn":"t3"}
{"ts":3,"kind":"commit","txns":["t1","t2"]}
{"ts":4,"kind":"step","txn":"t3","seq":1,"entity":"x"}
{"ts":5,"kind":"commit","txns":["t3"]}
`
	if string(got) != want {
		t.Fatalf("spool lines changed:\n%s\nwant:\n%s", got, want)
	}
}
