package wal

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mla/internal/fault"
	"mla/internal/model"
)

func add(d model.Value) func(model.Value) (model.Value, string) {
	return func(v model.Value) (model.Value, string) { return v + d, "add" }
}

func mustPerform(t *testing.T, db *DB, txn model.TxnID, seq int, x model.EntityID, d model.Value) {
	t.Helper()
	if _, err := db.Perform(txn, seq, x, add(d)); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedSurviveCrash(t *testing.T) {
	m := NewMedium()
	db, err := Open(m, map[model.EntityID]model.Value{"x": 10})
	if err != nil {
		t.Fatal(err)
	}
	mustPerform(t, db, "t1", 1, "x", 5)
	db.Commit("t1")
	mustPerform(t, db, "t2", 1, "x", 100) // in flight at the crash

	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Get("x"); got != 15 {
		t.Errorf("x = %d, want 15 (t1 committed, t2 rolled back)", got)
	}
	if !db2.Committed("t1") {
		t.Error("t1 must be durably committed")
	}
	if db2.Committed("t2") {
		t.Error("t2 must not be committed")
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 0})
	mustPerform(t, db, "t1", 1, "x", 7)
	db.Commit("t1")
	mustPerform(t, db, "t2", 1, "x", 1)

	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	db3, err := Open(db2.Crash(), map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Get("x") != 7 || db3.Get("x") != 7 {
		t.Errorf("double recovery: %d then %d, want 7", db2.Get("x"), db3.Get("x"))
	}
}

func TestExplicitAbortThenCrash(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 10})
	mustPerform(t, db, "t1", 1, "x", 5)
	if err := db.Abort(map[model.TxnID]bool{"t1": true}); err != nil {
		t.Fatal(err)
	}
	if db.Get("x") != 10 {
		t.Fatalf("x = %d after abort", db.Get("x"))
	}
	mustPerform(t, db, "t2", 1, "x", 3)
	db.Commit("t2")
	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 10})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Get("x") != 13 {
		t.Errorf("x = %d, want 13", db2.Get("x"))
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 0})
	for i := 0; i < 10; i++ {
		txn := model.TxnID(rune('a' + i))
		mustPerform(t, db, txn, 1, "x", 1)
		db.Commit(txn)
	}
	if err := db.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
	if n := db.RecordsSinceCheckpoint(); n != 0 {
		t.Fatalf("%d records to replay right after a checkpoint", n)
	}
	mustPerform(t, db, "late", 1, "x", 5)
	db.Commit("late")
	if n := db.RecordsSinceCheckpoint(); n != 2 {
		t.Fatalf("%d records to replay, want the 2 logged since the checkpoint", n)
	}
	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Get("x") != 15 {
		t.Errorf("x = %d, want 15", db2.Get("x"))
	}
	// The archive carries the commits whose records the checkpoint dropped.
	if !db2.Committed("a") || !db2.Committed("j") || !db2.Committed("late") {
		t.Error("a commit was lost across checkpoint + recovery")
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, nil)
	mustPerform(t, db, "t1", 1, "x", 1)
	if err := db.CheckpointCompact(); err == nil {
		t.Fatal("checkpoint with an active transaction must fail")
	}
	db.Commit("t1")
	if err := db.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
}

func TestTornCrashPrefixes(t *testing.T) {
	// Every durable prefix must recover to a consistent state: only fully
	// committed transactions' effects are visible.
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 0, "y": 0})
	mustPerform(t, db, "t1", 1, "x", 1)
	mustPerform(t, db, "t1", 2, "y", 2)
	db.Commit("t1")
	mustPerform(t, db, "t2", 1, "x", 10)
	db.Commit("t2")

	full := db.Crash()
	for lsn := int64(0); lsn <= int64(full.Len()); lsn++ {
		db2, err := Open(full.Prefix(lsn), map[model.EntityID]model.Value{"x": 0, "y": 0})
		if err != nil {
			t.Fatalf("prefix %d: %v", lsn, err)
		}
		x, y := db2.Get("x"), db2.Get("y")
		switch {
		case db2.Committed("t2"):
			if x != 11 || y != 2 {
				t.Errorf("prefix %d: x=%d y=%d want 11 2", lsn, x, y)
			}
		case db2.Committed("t1"):
			if x != 1 || y != 2 {
				t.Errorf("prefix %d: x=%d y=%d want 1 2", lsn, x, y)
			}
		default:
			if x != 0 || y != 0 {
				t.Errorf("prefix %d: x=%d y=%d want 0 0", lsn, x, y)
			}
		}
	}
}

func TestWinnerObservingLoserIsReported(t *testing.T) {
	// Violate the commit discipline on purpose: t2 reads t1's value and
	// commits while t1 stays in flight. Recovery must refuse.
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 0})
	mustPerform(t, db, "t1", 1, "x", 5)
	mustPerform(t, db, "t2", 1, "x", 3) // builds on t1's uncommitted 5
	db.Commit("t2")
	if _, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 0}); err == nil {
		t.Fatal("recovery must report a winner depending on a loser")
	}
}

// TestRecoveryIntegrityErrors: each inconsistency a checksum-valid log can
// hold fails Open with its own error, raised at the record that shows it.
func TestRecoveryIntegrityErrors(t *testing.T) {
	u := func(txn model.TxnID, seq int, x model.EntityID, before, after model.Value) Record {
		return Record{Kind: Update, Txn: txn, Seq: seq, Entity: x, Before: before, After: after}
	}
	c := func(txn model.TxnID, seq int, x model.EntityID, before, after model.Value) Record {
		return Record{Kind: Compensation, Txn: txn, Seq: seq, Entity: x, Before: before, After: after}
	}
	for _, tc := range []struct {
		name string
		log  []Record
		want string
	}{
		{"redo mismatch", []Record{u("t1", 1, "x", 5, 6)}, "redo mismatch at lsn 1"},
		{"compensation without a live update", []Record{c("t1", 1, "x", 0, 7)},
			"compensation at lsn 1 without a live update for t1"},
		{"compensation entity mismatch", []Record{u("t1", 1, "x", 0, 1), c("t1", 1, "y", 0, 7)},
			"compensation at lsn 2 cancels"},
		{"compensation redo mismatch", []Record{u("t1", 1, "x", 0, 1), u("t2", 1, "x", 1, 2), c("t1", 1, "x", 1, 0)},
			"compensation redo mismatch at lsn 3"},
		{"committed transaction with live updates", []Record{{Kind: Commit, Txn: "t1"}, u("t1", 1, "x", 0, 1)},
			"committed transaction t1 has live updates"},
		{"loser undo mismatch", []Record{u("t1", 1, "x", 0, 1), u("t2", 1, "x", 1, 2), {Kind: Commit, Txn: "t2"}},
			"loser undo mismatch"},
	} {
		m := NewMedium()
		for _, r := range tc.log {
			if _, err := m.put(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(m, map[model.EntityID]model.Value{"x": 0, "y": 0}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Open = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestPerformAfterCommitRejected(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, nil)
	mustPerform(t, db, "t1", 1, "x", 1)
	db.Commit("t1")
	if _, err := db.Perform("t1", 2, "x", add(1)); err == nil {
		t.Fatal("stepping a committed transaction must fail")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Update: "update", Commit: "commit", Abort: "abort", Checkpoint: "checkpoint", Kind(9): "unknown"} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
}

func TestNoOpUndoDoesNotClobber(t *testing.T) {
	// t1's pure read (value-preserving) is followed by t2's real write;
	// aborting t1 must not disturb t2, and recovery must agree.
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 5})
	if _, err := db.Perform("t1", 1, "x", func(v model.Value) (model.Value, string) { return v, "read" }); err != nil {
		t.Fatal(err)
	}
	mustPerform(t, db, "t2", 1, "x", 10) // x = 15
	db.Commit("t2")
	if err := db.Abort(map[model.TxnID]bool{"t1": true}); err != nil {
		t.Fatalf("aborting a pure reader must be clean: %v", err)
	}
	if db.Get("x") != 15 {
		t.Fatalf("x = %d, want 15", db.Get("x"))
	}
	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 5})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Get("x") != 15 {
		t.Errorf("after recovery x = %d, want 15", db2.Get("x"))
	}
}

func TestAbortSuffixPartialThenCommit(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 0, "y": 0})
	mustPerform(t, db, "t1", 1, "x", 5) // kept
	mustPerform(t, db, "t1", 2, "y", 7) // undone
	if err := db.AbortSuffix(map[model.TxnID]int{"t1": 1}); err != nil {
		t.Fatal(err)
	}
	if db.Get("x") != 5 || db.Get("y") != 0 {
		t.Fatalf("x=%d y=%d", db.Get("x"), db.Get("y"))
	}
	// Resume: redo step 2 differently, then commit.
	mustPerform(t, db, "t1", 2, "y", 9)
	db.Commit("t1")
	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 0, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Get("x") != 5 || db2.Get("y") != 9 {
		t.Errorf("after recovery: x=%d y=%d, want 5 9", db2.Get("x"), db2.Get("y"))
	}
}

func TestAbortSuffixPartialThenCrash(t *testing.T) {
	// A partially rolled-back transaction that never commits is a loser:
	// its kept prefix must also vanish at recovery.
	m := NewMedium()
	db, _ := Open(m, map[model.EntityID]model.Value{"x": 0, "y": 0})
	mustPerform(t, db, "t1", 1, "x", 5)
	mustPerform(t, db, "t1", 2, "y", 7)
	if err := db.AbortSuffix(map[model.TxnID]int{"t1": 1}); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(db.Crash(), map[model.EntityID]model.Value{"x": 0, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Get("x") != 0 || db2.Get("y") != 0 {
		t.Errorf("loser prefix survived: x=%d y=%d", db2.Get("x"), db2.Get("y"))
	}
}

// TestAbortSuffixLogIsDeterministic: the log of a cascading rollback is a
// function of the operations — the same eight victims rolled back twice
// write the same record stream (the Abort markers once followed keep's map
// order) — so a crash point counted into the rollback replays from its seed.
func TestAbortSuffixLogIsDeterministic(t *testing.T) {
	run := func() []Record {
		db, err := Open(NewMedium(), nil)
		if err != nil {
			t.Fatal(err)
		}
		keep := make(map[model.TxnID]int)
		for i := 0; i < 8; i++ {
			id := model.TxnID(fmt.Sprintf("t%d", i))
			mustPerform(t, db, id, 1, model.EntityID(fmt.Sprintf("x%d", i)), 1)
			mustPerform(t, db, id, 2, model.EntityID(fmt.Sprintf("y%d", i)), 1)
			keep[id] = i % 2 // whole and suffix-only victims alike
		}
		if err := db.AbortSuffix(keep); err != nil {
			t.Fatal(err)
		}
		return db.Crash().Records()
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("repeat %d of the same rollback wrote a different log", i)
		}
	}
}

// TestLiveCountsTransactionsWithLiveUpdates: Live counts exactly the
// transactions holding a live update — a partial rollback keeps one, a
// suffix rollback past its first step ends it — so a checkpoint can follow
// the rollback that made the log quiescent.
func TestLiveCountsTransactionsWithLiveUpdates(t *testing.T) {
	db, err := Open(NewMedium(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPerform(t, db, "t1", 1, "x", 1)
	mustPerform(t, db, "t1", 2, "y", 1)
	mustPerform(t, db, "t2", 1, "z", 1)
	if err := db.AbortSuffix(map[model.TxnID]int{"t1": 1, "t2": 0}); err != nil {
		t.Fatal(err)
	}
	if n := db.Live(); n != 1 {
		t.Fatalf("Live = %d after rolling t1 back to step 1 and t2 away, want 1", n)
	}
	if err := db.AbortSuffix(map[model.TxnID]int{"t1": 0}); err != nil {
		t.Fatal(err)
	}
	if n := db.Live(); n != 0 {
		t.Fatalf("Live = %d with every update undone, want 0", n)
	}
	if err := db.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
}

// logShape is the part of a record a rollback's log shape is made of: no
// LSN (the order carries it) and no checksum.
type logShape struct {
	Kind          Kind
	Txn           model.TxnID
	Seq           int
	Entity        model.EntityID
	Before, After model.Value
	Keep          int
}

// TestRollbackLogShape pins, phase by phase of one fixed script, the exact
// records a rollback writes, the error it returns, and what Open recovers
// from the log as it stands after the phase: two interleaved transactions,
// a value-preserving update, a partial and a full rollback in one
// AbortSuffix, then a rollback set that is not dependency-closed.
func TestRollbackLogShape(t *testing.T) {
	init := map[model.EntityID]model.Value{"x": 10, "y": 20, "z": 30}
	read := func(v model.Value) (model.Value, string) { return v, "read" }
	perform := func(db *DB, txn model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) {
		if _, err := db.Perform(txn, seq, x, f); err != nil {
			t.Fatal(err)
		}
	}
	u := func(txn model.TxnID, seq int, x model.EntityID, before, after model.Value) logShape {
		return logShape{Kind: Update, Txn: txn, Seq: seq, Entity: x, Before: before, After: after}
	}
	c := func(txn model.TxnID, seq int, x model.EntityID, before, after model.Value) logShape {
		return logShape{Kind: Compensation, Txn: txn, Seq: seq, Entity: x, Before: before, After: after}
	}
	phases := []struct {
		name     string
		run      func(db *DB) error
		want     []logShape
		wantErr  string // substring; "" = nil
		recovers map[model.EntityID]model.Value
		openErr  string // substring, when the log no longer recovers
	}{
		{"interleaved performs", func(db *DB) error {
			perform(db, "t1", 1, "x", add(5))
			perform(db, "t2", 1, "y", add(7))
			perform(db, "t1", 2, "z", read)
			perform(db, "t2", 2, "z", add(1))
			perform(db, "t1", 3, "y", add(2)) // t1 observes t2's y
			return nil
		}, []logShape{
			u("t1", 1, "x", 10, 15), u("t2", 1, "y", 20, 27), u("t1", 2, "z", 30, 30),
			u("t2", 2, "z", 30, 31), u("t1", 3, "y", 27, 29),
		}, "", init, ""},
		{"partial and full rollback in one AbortSuffix", func(db *DB) error {
			return db.AbortSuffix(map[model.TxnID]int{"t1": 1, "t2": 0})
		}, []logShape{
			c("t1", 3, "y", 29, 27), c("t2", 2, "z", 31, 30), c("t1", 2, "z", 30, 30), c("t2", 1, "y", 27, 20),
			{Kind: Abort, Txn: "t1", Keep: 1}, {Kind: Abort, Txn: "t2"},
		}, "", init, ""},
		{"resume the kept prefix and commit", func(db *DB) error {
			perform(db, "t1", 2, "y", add(3))
			return db.Commit("t1")
		}, []logShape{
			u("t1", 2, "y", 20, 23), {Kind: Commit, Txn: "t1"},
		}, "", map[model.EntityID]model.Value{"x": 15, "y": 23, "z": 30}, ""},
		{"rollback set not dependency-closed", func(db *DB) error {
			perform(db, "t3", 1, "x", add(1))
			perform(db, "t4", 1, "x", add(2)) // t4 observes t3's x
			return db.AbortSuffix(map[model.TxnID]int{"t3": 0})
		}, []logShape{
			u("t3", 1, "x", 15, 16), u("t4", 1, "x", 16, 18), c("t3", 1, "x", 16, 15),
			{Kind: Abort, Txn: "t3"},
		}, "not dependency-closed at t3 seq 1", nil, "compensation redo mismatch at lsn 16"},
	}
	m := NewMedium()
	db, err := Open(m, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range phases {
		from := m.Len()
		err := ph.run(db)
		if ph.wantErr == "" && err != nil || ph.wantErr != "" && (err == nil || !strings.Contains(err.Error(), ph.wantErr)) {
			t.Fatalf("%s: error %v, want %q", ph.name, err, ph.wantErr)
		}
		var got []logShape
		for _, r := range m.Records()[from:] {
			got = append(got, logShape{r.Kind, r.Txn, r.Seq, r.Entity, r.Before, r.After, r.Keep})
		}
		if !reflect.DeepEqual(got, ph.want) {
			t.Fatalf("%s: logged\n%+v\nwant\n%+v", ph.name, got, ph.want)
		}
		rec, err := Open(m.Prefix(1<<62), init) // a crash right after the phase
		switch {
		case ph.openErr != "":
			if err == nil || !strings.Contains(err.Error(), ph.openErr) {
				t.Fatalf("%s: Open error %v, want %q", ph.name, err, ph.openErr)
			}
		case err != nil:
			t.Fatalf("%s: Open: %v", ph.name, err)
		case !sameValues(rec.Values(), ph.recovers):
			t.Fatalf("%s: Open recovered %v, want %v", ph.name, rec.Values(), ph.recovers)
		}
	}
}

// TestQuickRandomHistories: random perform/commit/abort histories crash at
// random points; recovery must always equal the effects of exactly the
// committed transactions, replayed in their original order.
func TestQuickRandomHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ents := []model.EntityID{"x", "y", "z"}
	for trial := 0; trial < 60; trial++ {
		init := map[model.EntityID]model.Value{"x": 100, "y": 200, "z": 300}
		m := NewMedium()
		db, err := Open(m, init)
		if err != nil {
			t.Fatal(err)
		}
		// Serial transactions (each commits or aborts before the next
		// begins) so the commit discipline holds trivially.
		expected := maps.Clone(init)
		nTxn := 3 + rng.Intn(4)
		for i := 0; i < nTxn; i++ {
			txn := model.TxnID(rune('a' + i))
			var writes []struct {
				x model.EntityID
				d model.Value
			}
			steps := 1 + rng.Intn(3)
			for s := 0; s < steps; s++ {
				x := ents[rng.Intn(len(ents))]
				d := model.Value(rng.Intn(9) - 4)
				mustPerform(t, db, txn, s+1, x, d)
				writes = append(writes, struct {
					x model.EntityID
					d model.Value
				}{x, d})
			}
			switch rng.Intn(3) {
			case 0:
				if err := db.Abort(map[model.TxnID]bool{txn: true}); err != nil {
					t.Fatal(err)
				}
			default:
				db.Commit(txn)
				for _, w := range writes {
					expected[w.x] += w.d
				}
			}
		}
		db2, err := Open(db.Crash(), init)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, x := range ents {
			if db2.Get(x) != expected[x] {
				t.Fatalf("trial %d: %s = %d, want %d", trial, x, db2.Get(x), expected[x])
			}
		}
	}
}

// TestCommitGroupAtomicUnderTornTail: a group whose members observed each
// other's values commits with one record, so every torn prefix either keeps
// the whole group or rolls all of it back — per-member commit records would
// leave a winner depending on a loser at some prefix, which recovery
// rejects.
func TestCommitGroupAtomicUnderTornTail(t *testing.T) {
	init := map[model.EntityID]model.Value{"x": 0, "y": 0}
	m := NewMedium()
	db, err := Open(m, init)
	if err != nil {
		t.Fatal(err)
	}
	// Cyclic value dependency: a writes x, b reads-and-writes x then y,
	// a reads-and-writes y. Neither can commit before the other.
	mustPerform(t, db, "a", 1, "x", 1)
	mustPerform(t, db, "b", 1, "x", 1) // b observes a's uncommitted x
	mustPerform(t, db, "b", 2, "y", 1)
	mustPerform(t, db, "a", 2, "y", 1) // a observes b's uncommitted y
	db.CommitGroup([]model.TxnID{"a", "b"})
	if !db.Committed("a") || !db.Committed("b") {
		t.Fatal("group members not committed")
	}
	full := db.Crash()
	for lsn := int64(0); lsn <= int64(full.Len()); lsn++ {
		db2, err := Open(full.Prefix(lsn), init)
		if err != nil {
			t.Fatalf("prefix %d: %v", lsn, err)
		}
		if db2.Committed("a") != db2.Committed("b") {
			t.Fatalf("prefix %d split the commit group", lsn)
		}
		x, y := db2.Get("x"), db2.Get("y")
		if db2.Committed("a") {
			if x != 2 || y != 2 {
				t.Errorf("prefix %d: x=%d y=%d want 2 2", lsn, x, y)
			}
		} else if x != 0 || y != 0 {
			t.Errorf("prefix %d: x=%d y=%d want 0 0", lsn, x, y)
		}
	}
}

func TestCommitGroupEmptyAndSingle(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, nil)
	db.CommitGroup(nil) // no-op, no record
	if m.Len() != 0 {
		t.Fatalf("empty group appended %d records", m.Len())
	}
	mustPerform(t, db, "t", 1, "x", 1)
	db.CommitGroup([]model.TxnID{"t"})
	db2, err := Open(db.Crash(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !db2.Committed("t") || db2.Get("x") != 1 {
		t.Errorf("single-member group: committed=%v x=%d", db2.Committed("t"), db2.Get("x"))
	}
}

func TestMediumRecordsIsACopy(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, nil)
	mustPerform(t, db, "t", 1, "x", 1)
	recs := m.Records()
	if len(recs) != 1 || m.Len() != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	recs[0].Txn = "tampered"
	if m.Records()[0].Txn != "t" {
		t.Error("Records leaked internal storage")
	}
}

func TestPrefixBeyondEndIsFullCopy(t *testing.T) {
	m := NewMedium()
	db, _ := Open(m, nil)
	mustPerform(t, db, "t", 1, "x", 1)
	db.Commit("t")
	p := m.Prefix(1 << 30)
	if p.Len() != m.Len() {
		t.Errorf("prefix len %d, want %d", p.Len(), m.Len())
	}
}

func TestCorruptedRecordFailsRecovery(t *testing.T) {
	m := NewMedium()
	db, err := Open(m, map[model.EntityID]model.Value{"x": 10})
	if err != nil {
		t.Fatal(err)
	}
	mustPerform(t, db, "t1", 1, "x", 5)
	db.Commit("t1")
	mustPerform(t, db, "t2", 1, "x", 3)
	db.Commit("t2")
	med := db.Crash()

	// Every single-record corruption must be detected, wherever it lands:
	// an interior update, a commit, the tail record.
	for _, r := range med.Records() {
		cm := med.Prefix(int64(med.Len()))
		if !cm.Corrupt(r.LSN) {
			t.Fatalf("lsn %d not found", r.LSN)
		}
		if _, err := Open(cm, map[model.EntityID]model.Value{"x": 10}); err == nil {
			t.Errorf("recovery accepted corrupted %s record at lsn %d", r.Kind, r.LSN)
		}
	}
	// The uncorrupted log still recovers (the copies above never touched it).
	if db2, err := Open(med, map[model.EntityID]model.Value{"x": 10}); err != nil {
		t.Fatalf("clean log failed recovery: %v", err)
	} else if got := db2.Get("x"); got != 18 {
		t.Errorf("x = %d, want 18", got)
	}
}

func TestCorruptMissingLSN(t *testing.T) {
	m := NewMedium()
	if m.Corrupt(7) {
		t.Error("Corrupt reported success on an empty medium")
	}
}

// TestMediumCrashPoint: the append that reaches a crash point is durable,
// every later append fails fast with fault.ErrCrash, and Open reboots the
// medium without counting recovery's own appends, so the next crash point
// fires exactly where the plan puts it.
func TestMediumCrashPoint(t *testing.T) {
	init := map[model.EntityID]model.Value{"x": 0, "y": 0}
	inj := fault.New(fault.Plan{CrashAppends: []int64{3, 5}})
	m := NewMedium()
	m.Faults = inj
	db, err := Open(m, init)
	if err != nil {
		t.Fatal(err)
	}
	mustPerform(t, db, "t1", 1, "x", 1)
	mustPerform(t, db, "t2", 1, "y", 1) // a loser at the crash
	if err := db.CommitGroup([]model.TxnID{"t1"}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("third append = %v, want fault.ErrCrash", err)
	}
	if recs := m.Records(); len(recs) != 3 || recs[2].Kind != Commit {
		t.Fatalf("the crash point's commit record is not durable: %d records", len(recs))
	}
	if _, err := db.Perform("t3", 1, "x", add(1)); !errors.Is(err, fault.ErrCrash) || m.Len() != 3 {
		t.Fatalf("append after the crash = %v with %d records, want fault.ErrCrash and 3", err, m.Len())
	}
	db2, err := Open(db.Crash(), init)
	if err != nil {
		t.Fatal(err)
	}
	if !db2.Committed("t1") || db2.Get("x") != 1 || db2.Get("y") != 0 {
		t.Fatalf("recovered x=%d y=%d committed(t1)=%v", db2.Get("x"), db2.Get("y"), db2.Committed("t1"))
	}
	mustPerform(t, db2, "t3", 1, "x", 1)
	if _, err := db2.Perform("t3", 2, "x", add(1)); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("fifth counted append = %v, want fault.ErrCrash", err)
	}
	if got := inj.Appends(); got != 5 {
		t.Fatalf("injector counted %d appends, want 5 (recovery's undo uncounted)", got)
	}
}

// Corrupt flips the payload of the record with the given LSN without
// recomputing its checksum — simulated bit rot for recovery tests. It
// reports whether a record with that LSN existed.
func (m *Medium) Corrupt(lsn int64) bool {
	for i := range m.records {
		if m.records[i].LSN == lsn {
			m.records[i].After++
			m.records[i].Before--
			return true
		}
	}
	return false
}

// Get returns the current value of x.
func (db *DB) Get(x model.EntityID) model.Value { return db.store.Get(x) }
