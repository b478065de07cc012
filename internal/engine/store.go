package engine

import (
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/storage"
	"mla/internal/wal"
)

// Store is the engine's pluggable backend, mirroring sim.Store: the
// volatile storage.Store by default, or a WAL-backed wal.DB when
// durability and crash injection are wanted. The engine serializes every
// call under its mutex, so implementations need no locking of their own.
//
// Perform may fail: a WAL-backed store returns fault.ErrCrash when the
// fault injector decides the system dies at this append, and the engine
// abandons the run (RunWithCrashes then recovers from the durable medium).
// Commit is group-at-a-time — members of a commit group may have observed
// each other's values, so their durability must be atomic (one log record;
// see wal.DB.CommitGroup).
type Store interface {
	Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error)
	Abort(set map[model.TxnID]bool) error
	CommitGroup(ids []model.TxnID)
	Values() map[model.EntityID]model.Value
}

// AsyncCommitter is the optional store capability behind the engine's
// group-commit pipelining: SubmitGroup hands the commit group to the store
// and returns a channel that closes once the group is durable (on a WAL,
// after the batched record reaches the device and syncs). The engine marks
// the group's members "committing" until the ack, so workers keep stepping
// — and later groups keep forming — while the flush is in flight.
//
// A store implementing AsyncCommitter must make groups durable in
// submission order (batching adjacent groups into one atomic record is
// fine; reordering is not): the engine lets a submitted-but-unacked
// transaction satisfy dependencies, which is sound only if its record can
// never land after its dependents'.
type AsyncCommitter interface {
	SubmitGroup(ids []model.TxnID) <-chan struct{}
}

// CommitErrer is the optional store capability for durable-medium failure
// detection: CommitErr returns the store's latched persistent write/fsync
// failure (wrapping wal.ErrDegraded), nil while healthy. The engine
// consults it after every async-commit ack — an ack that closed after the
// error latched means the group's durability is indeterminate, and the
// engine fails the run instead of acknowledging the commit.
type CommitErrer interface {
	CommitErr() error
}

// volatileStore adapts the undo-log store; Perform cannot fail.
type volatileStore struct{ s *storage.Store }

// NewVolatileStore wraps a fresh storage.Store as an engine Store.
func NewVolatileStore(init map[model.EntityID]model.Value) Store {
	return volatileStore{s: storage.New(init)}
}

func (v volatileStore) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	return v.s.Perform(t, seq, x, f), nil
}
func (v volatileStore) Abort(set map[model.TxnID]bool) error   { return v.s.Abort(set) }
func (v volatileStore) CommitGroup(ids []model.TxnID)          { v.s.CommitGroup(ids) }
func (v volatileStore) Values() map[model.EntityID]model.Value { return v.s.Values() }

// WALStore backs the engine with a recoverable wal.DB and threads every
// durable append through the fault injector's crash counter. A crash
// triggered at a commit append is remembered and surfaces at the next
// Perform — the commit record itself is already durable (append precedes
// failure), exactly the torn-edge a recovery discipline must tolerate.
type WALStore struct {
	db      *wal.DB
	inj     *fault.Injector
	crashed bool
}

// NewWALStore wraps an opened wal.DB; inj may be nil (no fault injection).
func NewWALStore(db *wal.DB, inj *fault.Injector) *WALStore {
	return &WALStore{db: db, inj: inj}
}

// DB exposes the underlying wal.DB (RunWithCrashes needs the medium).
func (w *WALStore) DB() *wal.DB { return w.db }

// Crashed reports whether the injector already killed the system. The
// engine checks it before committing: a commit after the crash point would
// be volatile-only, and reporting it (observer, Result) would overstate
// what recovery can preserve.
func (w *WALStore) Crashed() bool { return w.crashed }

func (w *WALStore) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	if w.crashed {
		return model.Step{}, fault.ErrCrash
	}
	step, err := w.db.Perform(t, seq, x, f)
	if err != nil {
		// Stepping a committed transaction is an engine bug, not a fault.
		return model.Step{}, err
	}
	if w.inj.OnAppend() {
		// The update record IS durable; the volatile system dies now, and
		// no later operation of this round reaches the device.
		w.crashed = true
		return step, fault.ErrCrash
	}
	return step, nil
}

func (w *WALStore) Abort(set map[model.TxnID]bool) error {
	if w.crashed {
		return nil // the device is gone; the run is being abandoned
	}
	// Rollback appends compensation and abort-marker records; count them
	// so crash points keyed to append counts land inside rollbacks too.
	before := w.db.LogLen()
	err := w.db.Abort(set)
	for i := before; i < w.db.LogLen(); i++ {
		if w.inj.OnAppend() {
			w.crashed = true
		}
	}
	return err
}

func (w *WALStore) CommitGroup(ids []model.TxnID) {
	if w.crashed {
		return // the system is dead; nothing more becomes durable
	}
	w.db.CommitGroup(ids)
	if len(ids) > 0 && w.inj.OnAppend() {
		w.crashed = true
	}
}

func (w *WALStore) Values() map[model.EntityID]model.Value { return w.db.Values() }

// PipelinedWALStore backs the engine with a group-commit pipeline over a
// wal.DB: commit groups submitted while a sync is in flight are merged into one
// durable record and one device sync (see wal.Pipeline). It implements
// AsyncCommitter, so the engine overlaps execution with the flush instead
// of stalling every worker on the device. No fault injection — crash
// recovery testing stays on the synchronous WALStore, whose append-counted
// crash points the injector understands.
type PipelinedWALStore struct{ p *wal.Pipeline }

// NewPipelinedWALStore wraps a running pipeline as an engine Store. The
// caller keeps ownership: close the pipeline after the run (and after
// reading Values) to flush and stop its committer goroutine.
func NewPipelinedWALStore(p *wal.Pipeline) *PipelinedWALStore {
	return &PipelinedWALStore{p: p}
}

// Pipeline exposes the underlying pipeline (for stats: flushes, batch sizes).
func (s *PipelinedWALStore) Pipeline() *wal.Pipeline { return s.p }

func (s *PipelinedWALStore) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	return s.p.Perform(t, seq, x, f)
}

func (s *PipelinedWALStore) Abort(set map[model.TxnID]bool) error { return s.p.Abort(set) }

// CommitGroup is the synchronous fallback (Store interface): submit and
// wait for durability. The engine prefers SubmitGroup.
func (s *PipelinedWALStore) CommitGroup(ids []model.TxnID) { <-s.p.Submit(ids) }

// SubmitGroup implements AsyncCommitter. Ordering: wal.Pipeline appends
// pending groups under one mutex and every flush drains ALL of them into a
// single atomic record, so durability follows submission order exactly as
// the contract demands.
func (s *PipelinedWALStore) SubmitGroup(ids []model.TxnID) <-chan struct{} { return s.p.Submit(ids) }

// CommitErr implements CommitErrer: the pipeline's latched durable-medium
// failure, if any.
func (s *PipelinedWALStore) CommitErr() error { return s.p.Err() }

func (s *PipelinedWALStore) Values() map[model.EntityID]model.Value { return s.p.Values() }
