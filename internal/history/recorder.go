package history

import (
	"encoding/json"
	"fmt"
	"os"
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
// A Recorder either keeps its events in memory (NewRecorder; read back with
// History) or appends each one to a spool file as it happens (OpenSpoolFile;
// read back with ReadSpoolFile). Both record the same events: a step, an
// abort, a commit group. A crash records nothing — the replay discards an
// attempt that never commits and restarts a transaction whose seq-1 step
// lands over a pending attempt — so what a killed process leaves behind and
// what an injected crash leaves in memory are the same history.
//
// The engine serializes the per-run hooks under its mutex; a single mutex
// still guards the log so History can snapshot a run in progress and a
// file-backed recorder can take declarations from request goroutines.
//
// Errors are sticky: the first failed write latches, every later call is a
// cheap no-op, and Err reports it — a history spool must never be able to
// wedge the server it observes.
type Recorder struct {
	// n is the nest History labels the level matrix from. A file-backed
	// recorder has none: it writes every event as a spool line and never
	// holds one in memory, also after Close.
	n *nest.Nest

	mu     sync.Mutex
	next   int64 // TS counter
	events []Event
	ids    []model.TxnID // the chunk commit groups' members are kept in
	f      *os.File
	buf    []byte // the line being written, reused
	err    error
}

// NewRecorder returns an in-memory Recorder for runs over the given nest.
// Every transaction the engine reports must be present in the nest.
func NewRecorder(n *nest.Nest) *Recorder {
	return &Recorder{n: n}
}

// record stamps ev with the next TS and appends it to the log. A commit
// group's Txns is borrowed for the call only: a file-backed recorder writes
// the line before returning, and an in-memory one copies the members into
// its current id chunk (a new one when they do not fit) and keeps a slice
// capped at its own end, so appending to one event's Txns never reaches the
// next one's.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.TS = r.next
	r.next++
	if r.n == nil {
		r.writeLocked(ev)
		return
	}
	if ev.Kind == KindCommit {
		if cap(r.ids)-len(r.ids) < len(ev.Txns) {
			r.ids = make([]model.TxnID, 0, max(1024, len(ev.Txns)))
		}
		i := len(r.ids)
		r.ids = append(r.ids, ev.Txns...)
		ev.Txns = r.ids[i:len(r.ids):len(r.ids)]
	}
	r.events = append(r.events, ev)
}

// writeLocked marshals one spool line and hands it to the kernel in a
// single write. Called with r.mu held.
func (r *Recorder) writeLocked(l any) {
	if r.err != nil {
		return
	}
	payload, err := json.Marshal(l)
	if err != nil {
		r.err = fmt.Errorf("history: spool encode: %w", err)
		return
	}
	r.buf = append(append(r.buf[:0], payload...), '\n')
	if _, err := r.f.Write(r.buf); err != nil {
		r.err = fmt.Errorf("history: spool write: %w", err)
	}
}

// Declare records one transaction's intermediate level labels (len k-2)
// for a file-backed recorder; it must precede the transaction's first event
// line, and redeclaring is harmless (the reader keeps the latest). An
// in-memory recorder labels every row from its nest, so there it is a no-op.
func (r *Recorder) Declare(t model.TxnID, levels []string) {
	if r.n != nil {
		return
	}
	if levels == nil {
		levels = []string{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writeLocked(spoolDecl{Decl: t, Levels: levels})
}

// StepPerformed implements the engine Observer shape.
func (r *Recorder) StepPerformed(t model.TxnID, seq int, x model.EntityID, attempt, cut int) {
	r.record(Event{Kind: KindStep, Txn: t, Seq: seq, Entity: x, Cut: cut})
}

// TxnAborted implements the engine Observer shape. Engine rollbacks are
// always full (partial rollback is a simulator feature), so Kept is 0. A
// transaction withdrawn while still waiting for its first grant is aborted
// having performed nothing: the abort is its only event.
func (r *Recorder) TxnAborted(t model.TxnID, cascade bool) {
	r.record(Event{Kind: KindAbort, Txn: t})
}

// CommitGroup implements the engine Observer shape. The engine fires it
// when the group forms — BEFORE a server acknowledges any member — so an
// acked transaction always has its commit in the history: the soak's
// lost-ack audit rests on that ordering.
func (r *Recorder) CommitGroup(txns []model.TxnID) {
	r.record(Event{Kind: KindCommit, Txns: txns})
}

// Crashed implements the engine Observer shape and records nothing: a
// crash leaves its victims' attempts pending, which the replay discards
// unless they recommit, exactly as after a process kill.
func (r *Recorder) Crashed(round, torn int) {}

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

// Err returns the latched write failure, nil while healthy.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close closes a file-backed recorder's spool; it must not record
// afterwards. Closing an in-memory recorder does nothing.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return r.err
	}
	err := r.f.Close()
	r.f = nil
	if r.err == nil && err != nil {
		r.err = fmt.Errorf("history: spool close: %w", err)
	}
	return r.err
}

// History snapshots an in-memory recorder's events into a checkable
// history. The level matrix covers exactly the transactions that appear in
// the snapshot, labeled consistently from the full nest's class structure.
func (r *Recorder) History() *History {
	r.mu.Lock()
	events := append([]Event(nil), r.events...)
	r.mu.Unlock()
	txns := make([]model.TxnID, 0, len(events))
	for _, ev := range events {
		if ev.Kind == KindCommit {
			txns = append(txns, ev.Txns...)
		} else {
			txns = append(txns, ev.Txn)
		}
	}
	return &History{Format: Format, K: r.n.K(), Levels: LevelPaths(r.n, txns), Events: events}
}
