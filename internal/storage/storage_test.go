package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"mla/internal/model"
)

func add(d model.Value) func(model.Value) (model.Value, string) {
	return func(v model.Value) (model.Value, string) { return v + d, "add" }
}

func TestPerformRecordsStep(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 100})
	step := s.Perform("t1", 1, "x", add(-30))
	if step.Before != 100 || step.After != 70 || step.Label != "add" {
		t.Fatalf("step = %v", step)
	}
	if s.Get("x") != 70 {
		t.Errorf("x = %d", s.Get("x"))
	}
	if s.live != 1 {
		t.Errorf("pending = %d", s.live)
	}
}

func TestAbortRestoresValues(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 10, "y": 20})
	s.Perform("t1", 1, "x", add(5))
	s.Perform("t1", 2, "y", add(7))
	if err := s.Abort(map[model.TxnID]bool{"t1": true}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 10 || s.Get("y") != 20 {
		t.Errorf("values after abort: x=%d y=%d", s.Get("x"), s.Get("y"))
	}
	if s.live != 0 {
		t.Errorf("pending = %d", s.live)
	}
}

func TestAbortDependencyClosedSet(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0})
	s.Perform("t1", 1, "x", add(1)) // x=1
	s.Perform("t2", 1, "x", add(2)) // x=3, observed t1's value
	// Aborting both (dependency-closed) restores 0 without error.
	if err := s.Abort(map[model.TxnID]bool{"t1": true, "t2": true}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 0 {
		t.Errorf("x = %d", s.Get("x"))
	}
}

func TestAbortDetectsUnclosedSet(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0})
	s.Perform("t1", 1, "x", add(1))
	s.Perform("t2", 1, "x", add(2)) // t2 depends on t1
	// Aborting only t1 is unsound: t2's record stays, value chain broken.
	if err := s.Abort(map[model.TxnID]bool{"t1": true}); err == nil {
		t.Fatal("unclosed abort set must be reported")
	}
}

func TestCommitTruncates(t *testing.T) {
	s := New(nil)
	s.Perform("t1", 1, "x", add(1))
	s.Perform("t2", 1, "y", add(1))
	s.Commit("t1")
	if s.live != 1 {
		t.Errorf("pending = %d", s.live)
	}
	// Aborting a committed transaction's records is a no-op.
	if err := s.Abort(map[model.TxnID]bool{"t1": true}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 1 {
		t.Error("committed write must survive")
	}
}

func TestInterleavedAbortKeepsSurvivors(t *testing.T) {
	// t1 and t3 touch disjoint entities from t2; abort t2 alone.
	s := New(map[model.EntityID]model.Value{"x": 0, "y": 0})
	s.Perform("t1", 1, "x", add(1))
	s.Perform("t2", 1, "y", add(5))
	s.Perform("t3", 1, "x", add(2)) // depends on t1, not t2
	if err := s.Abort(map[model.TxnID]bool{"t2": true}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 3 || s.Get("y") != 0 {
		t.Errorf("x=%d y=%d", s.Get("x"), s.Get("y"))
	}
}

func TestValuesIsACopy(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"a": 1, "b": 2})
	v := s.Values()
	v["a"] = 99 // must be a copy
	if s.Get("a") != 1 {
		t.Error("Values leaked internal map")
	}
}

func TestCompaction(t *testing.T) {
	s := New(nil)
	for i := 0; i < 3000; i++ {
		s.Perform("t", i+1, "x", add(1))
	}
	s.Commit("t")
	if s.live != 0 {
		t.Errorf("pending = %d", s.live)
	}
	// Log should have been compacted away.
	if len(s.log) != 0 {
		t.Errorf("log still has %d records after commit+compaction", len(s.log))
	}
}

func TestAbortSuffixKeepsPrefix(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0, "y": 0})
	s.Perform("t1", 1, "x", add(1)) // kept
	s.Perform("t1", 2, "y", add(2)) // undone
	s.Perform("t1", 3, "y", add(3)) // undone
	if err := s.AbortSuffix(map[model.TxnID]int{"t1": 1}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 1 || s.Get("y") != 0 {
		t.Errorf("x=%d y=%d, want 1 0", s.Get("x"), s.Get("y"))
	}
	if s.live != 1 {
		t.Errorf("pending = %d, want 1", s.live)
	}
	// The surviving prefix can still be fully aborted later.
	if err := s.Abort(map[model.TxnID]bool{"t1": true}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 0 {
		t.Errorf("x = %d after full abort", s.Get("x"))
	}
}

func TestAbortSuffixZeroKeepEqualsAbort(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 10})
	s.Perform("t1", 1, "x", add(5))
	s.Perform("t1", 2, "x", add(7))
	if err := s.AbortSuffix(map[model.TxnID]int{"t1": 0}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 10 {
		t.Errorf("x = %d", s.Get("x"))
	}
}

func TestAbortSuffixDetectsUnclosed(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0})
	s.Perform("t1", 1, "x", add(1))
	s.Perform("t2", 1, "x", add(2)) // observed t1's suffix value
	// Undoing t1's step while keeping t2's is unsound.
	if err := s.AbortSuffix(map[model.TxnID]int{"t1": 0}); err == nil {
		t.Fatal("unclosed partial abort must be reported")
	}
}

func TestAbortSuffixMultipleTxns(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0, "y": 0})
	s.Perform("t1", 1, "x", add(1))
	s.Perform("t2", 1, "y", add(10))
	s.Perform("t1", 2, "x", add(2))  // undone
	s.Perform("t2", 2, "y", add(20)) // undone
	if err := s.AbortSuffix(map[model.TxnID]int{"t1": 1, "t2": 1}); err != nil {
		t.Fatal(err)
	}
	if s.Get("x") != 1 || s.Get("y") != 10 {
		t.Errorf("x=%d y=%d", s.Get("x"), s.Get("y"))
	}
}

// TestOnUndoHook: the hook sees every record the rollback loop undoes,
// newest first and value-preserving ones included, before it dies; an error
// stops the loop there and is returned.
func TestOnUndoHook(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0, "y": 0})
	s.Perform("t1", 1, "x", add(1))
	s.Perform("t2", 1, "y", add(2))
	s.Perform("t1", 2, "y", add(0)) // value-preserving
	var seen []model.Step
	s.OnUndo = func(u model.Step) error {
		seen = append(seen, u)
		return nil
	}
	if err := s.AbortSuffix(map[model.TxnID]int{"t1": 0}); err != nil {
		t.Fatal(err)
	}
	want := []model.Step{
		{Txn: "t1", Seq: 2, Entity: "y", Before: 2, After: 2},
		{Txn: "t1", Seq: 1, Entity: "x", Before: 0, After: 1},
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("hook saw %v, want %v", seen, want)
	}
	stop := fmt.Errorf("stop")
	s.OnUndo = func(model.Step) error { return stop }
	if err := s.Abort(map[model.TxnID]bool{"t2": true}); err != stop {
		t.Fatalf("Abort = %v, want the hook's error", err)
	}
	if s.Get("y") != 2 || s.live != 1 || s.PendingTxns() != 1 {
		t.Fatalf("a stopped rollback undid its record: y=%d pending=%d/%d", s.Get("y"), s.live, s.PendingTxns())
	}
}

// TestPendingTxnsIsExact: a transaction counts as pending exactly while it
// has a live record — a suffix rollback past its first record, a full
// abort and a commit all end it.
func TestPendingTxnsIsExact(t *testing.T) {
	s := New(nil)
	for _, id := range []model.TxnID{"a", "b", "c", "d"} {
		s.Perform(id, 1, "x", add(1))
		s.Perform(id, 2, "y", add(1))
	}
	check := func(want ...model.TxnID) {
		t.Helper()
		if got := s.InFlight(); fmt.Sprint(got) != fmt.Sprint(want) || s.PendingTxns() != len(want) {
			t.Fatalf("in flight %v (%d), want %v", got, s.PendingTxns(), want)
		}
	}
	check("a", "b", "c", "d")
	if err := s.AbortSuffix(map[model.TxnID]int{"d": 1}); err != nil {
		t.Fatal(err)
	}
	check("a", "b", "c", "d")
	if err := s.AbortSuffix(map[model.TxnID]int{"d": 0, "c": 0}); err != nil {
		t.Fatal(err)
	}
	check("a", "b")
	if err := s.Abort(map[model.TxnID]bool{"b": true}); err != nil {
		t.Fatal(err)
	}
	s.Commit("a")
	check()
}

// Property: perform k ops then abort all transactions → initial state.
func TestQuickAbortAllRestoresInit(t *testing.T) {
	prop := func(deltas []int8) bool {
		s := New(map[model.EntityID]model.Value{"x": 42, "y": -7})
		ents := []model.EntityID{"x", "y"}
		seqs := map[model.TxnID]int{}
		set := map[model.TxnID]bool{}
		for i, d := range deltas {
			txn := model.TxnID(rune('a' + i%3))
			seqs[txn]++
			set[txn] = true
			s.Perform(txn, seqs[txn], ents[i%2], add(model.Value(d)))
		}
		if err := s.Abort(set); err != nil {
			return false
		}
		return s.Get("x") == 42 && s.Get("y") == -7
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAllocBudget pins the per-transaction index recycling: once warm,
// a Perform/Commit cycle allocates nothing, and neither does an Abort or a
// compaction pass (the measured cycles cross several). Names and abort sets
// are built outside the measured function.
func TestStoreAllocBudget(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0, "y": 0})
	ids := make([]model.TxnID, 64)
	sets := make([]map[model.TxnID]bool, len(ids))
	for i := range ids {
		ids[i] = model.TxnID(fmt.Sprintf("t%d", i))
		sets[i] = map[model.TxnID]bool{ids[i]: true}
	}
	inc := add(1)
	i, aborts, compactions := 0, 0, 0
	cycle := func() {
		j := i % len(ids)
		i++
		s.Perform(ids[j], 1, "x", inc)
		s.Perform(ids[j], 2, "y", inc)
		before := len(s.log)
		if i%4 == 0 {
			if err := s.Abort(sets[j]); err != nil {
				t.Fatal(err)
			}
			aborts++
		} else {
			s.Commit(ids[j])
		}
		if len(s.log) < before {
			compactions++
		}
	}
	for i < 2000 {
		cycle() // warm-up: the log and the spare list reach their steady size
	}
	aborts, compactions = 0, 0
	if got := testing.AllocsPerRun(2000, cycle); got != 0 {
		t.Fatalf("%.2f allocations per transaction, want 0: index slices are not recycled", got)
	}
	if aborts == 0 || compactions == 0 || s.live != 0 {
		t.Fatalf("measured %d aborts, %d compactions, %d pending records: want both kinds and nothing pending",
			aborts, compactions, s.live)
	}
}

// TestCommitIndexAcrossCompactionAndAborts: Commit uses the per-transaction
// position index; it must stay correct after abort-killed records, restarts
// that re-append under the same ID, and log compaction (which renumbers
// every position).
func TestCommitIndexAcrossCompactionAndAborts(t *testing.T) {
	s := New(map[model.EntityID]model.Value{"x": 0})
	// Enough committed churn to force compaction (threshold 1024 records).
	for i := 0; i < 1500; i++ {
		txn := model.TxnID(fmt.Sprintf("churn-%04d", i))
		s.Perform(txn, 1, "x", add(1))
		s.Commit(txn)
	}
	// A transaction that aborts, restarts, performs again, then commits.
	s.Perform("t", 1, "x", add(5))
	if err := s.Abort(map[model.TxnID]bool{"t": true}); err != nil {
		t.Fatal(err)
	}
	s.Perform("t", 1, "x", add(7))
	live := s.live
	if live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
	s.Commit("t")
	if s.live != 0 {
		t.Errorf("pending after commit = %d", s.live)
	}
	if s.Get("x") != 1507 {
		t.Errorf("x = %d, want 1507", s.Get("x"))
	}
	// Committing again (or an unknown txn) is a harmless no-op.
	s.Commit("t")
	s.Commit("never-ran")
	if s.live != 0 {
		t.Errorf("no-op commits changed accounting: %d", s.live)
	}
}
