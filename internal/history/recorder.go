package history

import (
	"sync"
	"time"

	"mla/internal/model"
	"mla/internal/nest"
)

// Recorder captures a history live from an engine run. It implements the
// engine's Observer interface structurally (so this package stays free of
// an engine dependency); pass it to engine.Tee alongside any other
// observers.
//
// The engine serializes the per-run hooks under its mutex, so most methods
// need no locking of their own; Crashed/Recovered fire from the recovery
// loop between rounds, when no workers are live. A single mutex still
// guards the event log so a Recorder is safe even if a future caller
// relaxes those guarantees, and so History() can be called concurrently
// with a run for a consistent snapshot.
type Recorder struct {
	n *nest.Nest

	mu      sync.Mutex
	events  []Event
	pending map[model.TxnID]bool // txns with a live (uncommitted) attempt
	seen    map[model.TxnID]bool
}

// NewRecorder returns a Recorder for runs over the given nest. Every
// transaction the engine reports must be present in the nest.
func NewRecorder(n *nest.Nest) *Recorder {
	return &Recorder{
		n:       n,
		pending: make(map[model.TxnID]bool),
		seen:    make(map[model.TxnID]bool),
	}
}

// StepPerformed implements the engine Observer shape.
func (r *Recorder) StepPerformed(t model.TxnID, seq int, x model.EntityID, attempt, cut int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending[t] = true
	r.seen[t] = true
	r.events = append(r.events, Event{
		TS: int64(len(r.events)), Kind: KindStep,
		Txn: t, Seq: seq, Entity: x, Cut: cut,
	})
}

// TxnAborted implements the engine Observer shape. Engine rollbacks are
// always full (partial rollback is a simulator feature), so Kept is 0.
func (r *Recorder) TxnAborted(t model.TxnID, cascade bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pending, t)
	// A transaction withdrawn while still waiting for its first grant is
	// aborted having performed nothing: the abort is its only event.
	r.seen[t] = true
	r.events = append(r.events, Event{TS: int64(len(r.events)), Kind: KindAbort, Txn: t})
}

// CommitGroup implements the engine Observer shape.
func (r *Recorder) CommitGroup(txns []model.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := append([]model.TxnID(nil), txns...)
	for _, t := range ids {
		delete(r.pending, t)
		r.seen[t] = true
	}
	r.events = append(r.events, Event{TS: int64(len(r.events)), Kind: KindCommit, Txns: ids})
}

// Crashed implements the engine Observer shape: a crash discards every live
// attempt (volatile state is gone). Transactions whose commit record the
// crash tore off the log tail are re-executed by the recovery loop, and the
// replay's last-commit-wins rule handles their reappearing steps.
func (r *Recorder) Crashed(round, torn int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	victims := make([]model.TxnID, 0, len(r.pending))
	for t := range r.pending {
		victims = append(victims, t)
	}
	model.SortTxnIDs(victims)
	for _, t := range victims {
		r.events = append(r.events, Event{TS: int64(len(r.events)), Kind: KindAbort, Txn: t})
		delete(r.pending, t)
	}
}

// WaitBegin implements the engine Observer shape (not part of a history).
func (r *Recorder) WaitBegin(model.TxnID, model.EntityID) {}

// WaitEnd implements the engine Observer shape (not part of a history).
func (r *Recorder) WaitEnd(model.TxnID, model.EntityID, time.Duration) {}

// FaultInjected implements the engine Observer shape: a transient step
// failure performs nothing, so it leaves no history event.
func (r *Recorder) FaultInjected(model.TxnID, int, int) {}

// TxnGaveUp implements the engine Observer shape: a parked transaction's
// pending steps simply never commit, which the replay already discards.
func (r *Recorder) TxnGaveUp(model.TxnID, int) {}

// Recovered implements the engine Observer shape (not part of a history).
func (r *Recorder) Recovered(int, int) {}

// RunEnded implements the engine Observer shape (not part of a history).
func (r *Recorder) RunEnded(int, int, time.Duration) {}

// History snapshots the recorded events into a checkable history. The level
// matrix covers exactly the transactions that appeared in events, labeled
// consistently from the full nest's class structure.
func (r *Recorder) History() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	txns := make([]model.TxnID, 0, len(r.seen))
	for t := range r.seen {
		txns = append(txns, t)
	}
	model.SortTxnIDs(txns)
	return &History{
		Format: Format,
		K:      r.n.K(),
		Levels: LevelPaths(r.n, txns),
		Events: append([]Event(nil), r.events...),
	}
}
