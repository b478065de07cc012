package engine

import (
	"mla/internal/model"
	"mla/internal/storage"
	"mla/internal/wal"
)

// Store is the engine's pluggable backend, mirroring sim.Store: the
// volatile storage.Store by default, or PipelinedWALStore when durability
// is wanted. The engine serializes every call under its mutex, so
// implementations need no locking of their own.
//
// Perform may fail: a WAL-backed store returns its medium's failure — a
// degraded disk, or fault.ErrCrash at an injected crash point — and the
// engine abandons the run (RunWithCrashes then recovers from the durable
// medium). Commit is group-at-a-time — members of a commit group may have
// observed each other's values, so their durability must be atomic (one log
// record; see wal.DB.CommitGroup). The ids CommitGroup receives are valid
// only during the call: a store copies what it keeps.
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
//
// As for Store.CommitGroup, the ids are valid only during the call: the
// store copies what it keeps past the return.
type AsyncCommitter interface {
	SubmitGroup(ids []model.TxnID) <-chan struct{}
}

// CommitErrer is the optional store capability for durable-medium failure
// detection: CommitErr returns the store's latched medium failure (wrapping
// wal.ErrDegraded or fault.ErrCrash), nil while healthy. The engine
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

// PipelinedWALStore backs the engine with a group-commit pipeline over a
// wal.DB: commit groups submitted while a sync is in flight are merged into one
// durable record and one device sync (see wal.Pipeline). It implements
// AsyncCommitter, so the engine overlaps execution with the flush instead
// of stalling every worker on the device. It is the store mlaserve commits
// through and the one RunWithCrashes recovers: crash points live in the
// medium (wal.Medium.Faults), and the pipeline latches them like any other
// medium failure.
type PipelinedWALStore struct{ p *wal.Pipeline }

// NewPipelinedWALStore wraps a running pipeline as an engine Store. The
// caller keeps ownership: close the pipeline after the run (and after
// reading Values) to flush and stop its committer goroutine.
func NewPipelinedWALStore(p *wal.Pipeline) *PipelinedWALStore {
	return &PipelinedWALStore{p: p}
}

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
