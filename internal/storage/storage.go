// Package storage provides the in-memory entity store used by the
// concurrency controls, and by wal.DB beneath its log: current values plus
// a global undo log supporting
// rollback of an arbitrary *dependency-closed* set of transactions (the
// paper's unit of recovery, Section 1; cascading rollback, Section 6).
//
// Rollback restores before-images by walking the log backwards. That is
// correct only when the aborted set is closed under value dependencies:
// every transaction that observed a value written by an aborted transaction
// must itself be in the set. The Ledger in this package computes that
// closure (and the commit groups the same dependencies force) for both
// executors; Store checks the resulting value chain and reports violations
// rather than silently corrupting state.
package storage

import (
	"fmt"

	"mla/internal/model"
)

type record struct {
	txn    model.TxnID
	seq    int
	entity model.EntityID
	before model.Value
	after  model.Value
	dead   bool // committed (truncated) or already undone
}

// Store holds entity values and the undo log.
type Store struct {
	vals map[model.EntityID]model.Value
	log  []record
	live int // number of non-dead records
	// byTxn indexes each transaction's log positions so Commit touches
	// only the transaction's own records instead of scanning the whole
	// log. It holds exactly the transactions with a live record; an entry
	// may also point at dead records (a suffix rollback kills records
	// without maintaining the index), which readers skip. The map is
	// cleared, never replaced, so it keeps the buckets of its peak in-flight
	// count.
	byTxn map[model.TxnID][]int
	spare [][]int // emptied byTxn slices (at most 64) for new transactions

	// OnUndo, when non-nil, is called by the rollback loop with each record
	// it is about to undo, newest first — value-preserving ones included —
	// before the record dies. An error stops the loop and is returned. The
	// WAL logs its compensation records here.
	OnUndo func(model.Step) error
}

// New creates a store with the given initial values (copied).
func New(init map[model.EntityID]model.Value) *Store {
	s := &Store{
		vals:  make(map[model.EntityID]model.Value, len(init)),
		byTxn: make(map[model.TxnID][]int),
	}
	for x, v := range init {
		s.vals[x] = v
	}
	return s
}

// Get returns the current value of x (0 if never written).
func (s *Store) Get(x model.EntityID) model.Value { return s.vals[x] }

// Perform executes one atomic step for transaction t: it reads the current
// value of x, applies f to obtain the written value and label, logs the
// before-image, installs the new value, and returns the recorded step.
func (s *Store) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) model.Step {
	before := s.vals[x]
	after, label := f(before)
	s.log = append(s.log, record{txn: t, seq: seq, entity: x, before: before, after: after})
	s.index(t, len(s.log)-1)
	s.live++
	s.vals[x] = after
	return model.Step{Txn: t, Seq: seq, Entity: x, Label: label, Before: before, After: after}
}

// index appends log position i to t's index; a new transaction's slice
// comes from the spare list.
func (s *Store) index(t model.TxnID, i int) {
	idx, ok := s.byTxn[t]
	if n := len(s.spare); !ok && n > 0 {
		idx, s.spare = s.spare[n-1], s.spare[:n-1]
	}
	s.byTxn[t] = append(idx, i)
}

// recycle hands an index slice leaving byTxn to the spare list.
func (s *Store) recycle(idx []int) {
	if idx != nil && len(s.spare) < 64 {
		s.spare = append(s.spare, idx[:0])
	}
}

// Abort rolls back every logged step of the transactions in set, newest
// first, restoring before-images. It returns an error if the log shows that
// a surviving transaction observed a value being undone (the set was not
// dependency-closed); the store is still left with the set's effects
// removed, but the caller's schedule is unsound.
func (s *Store) Abort(set map[model.TxnID]bool) error {
	err := s.undo(func(r *record) bool { return set[r.txn] })
	for t := range set {
		s.forget(t)
	}
	return err
}

// AbortSuffix rolls back each transaction in keep to its given sequence
// number: records with seq > keep[txn] are undone, newest first; earlier
// records survive. This is the paper's smaller unit of recovery — rolling a
// transaction back to a breakpoint instead of aborting it entirely. The
// same dependency-closure requirement applies, now at step granularity:
// every surviving step that observed an undone value must itself be in the
// undone suffix of its transaction, or the error is reported.
func (s *Store) AbortSuffix(keep map[model.TxnID]int) error {
	err := s.undo(func(r *record) bool {
		k, ok := keep[r.txn]
		return ok && r.seq > k
	})
	for t := range keep {
		s.forget(t)
	}
	return err
}

// forget drops t's index entry once a rollback has left it no live record
// (a restart re-indexes from scratch).
func (s *Store) forget(t model.TxnID) {
	idx, ok := s.byTxn[t]
	if !ok {
		return
	}
	for _, i := range idx {
		if !s.log[i].dead {
			return
		}
	}
	s.recycle(idx)
	delete(s.byTxn, t)
}

// undo is the one rollback loop: it walks the log backwards and restores
// the before-image of every live record the caller selects.
func (s *Store) undo(selected func(*record) bool) error {
	var unsound error
	for i := len(s.log) - 1; i >= 0; i-- {
		r := &s.log[i]
		if r.dead || !selected(r) {
			continue
		}
		if s.OnUndo != nil {
			if err := s.OnUndo(model.Step{Txn: r.txn, Seq: r.seq, Entity: r.entity, Before: r.before, After: r.after}); err != nil {
				return err
			}
		}
		r.dead = true
		s.live--
		if r.before == r.after {
			// A value-preserving access (pure read, zero-amount deposit)
			// needs no undo, and later writers legitimately do not depend
			// on it — restoring would clobber their values.
			continue
		}
		if cur := s.vals[r.entity]; cur != r.after && unsound == nil {
			// Someone outside the undone set overwrote after us and was not
			// undone first: dependency closure was violated.
			unsound = fmt.Errorf("storage: rollback not dependency-closed at %s seq %d entity %s (value %d, expected %d)",
				r.txn, r.seq, r.entity, cur, r.after)
		}
		s.vals[r.entity] = r.before
	}
	s.maybeCompact()
	return unsound
}

// Commit truncates the log records of t; its effects become permanent.
// The per-transaction index makes this proportional to t's own records
// rather than the whole undo log.
func (s *Store) Commit(t model.TxnID) {
	idx := s.byTxn[t]
	for _, i := range idx {
		if !s.log[i].dead {
			s.log[i].dead = true
			s.live--
		}
	}
	delete(s.byTxn, t)
	s.recycle(idx)
	s.maybeCompact()
}

// CommitGroup commits every member of a commit group (see Ledger.Group).
func (s *Store) CommitGroup(ids []model.TxnID) {
	for _, t := range ids {
		s.Commit(t)
	}
}

func (s *Store) maybeCompact() {
	if len(s.log) < 1024 || s.live*2 > len(s.log) {
		return
	}
	out := s.log[:0]
	for _, r := range s.log {
		if !r.dead {
			out = append(out, r)
		}
	}
	s.log = out
	for _, idx := range s.byTxn {
		s.recycle(idx)
	}
	clear(s.byTxn)
	for i, r := range s.log {
		s.index(r.txn, i)
	}
}

// PendingTxns returns the number of transactions with a live record.
func (s *Store) PendingTxns() int { return len(s.byTxn) }

// InFlight returns the transactions with a live record, in id order.
func (s *Store) InFlight() []model.TxnID { return model.SortedKeys(s.byTxn) }

// Values returns a copy of the current entity values.
func (s *Store) Values() map[model.EntityID]model.Value {
	out := make(map[model.EntityID]model.Value, len(s.vals))
	for x, v := range s.vals {
		out[x] = v
	}
	return out
}
