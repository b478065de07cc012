package wal

import (
	"errors"
	"sync"
	"time"

	"mla/internal/fault"
	"mla/internal/model"
)

// Pipeline is the group-commit committer: a dedicated flusher goroutine
// that batches concurrent commit submissions into one durable CommitGroup
// record and one device sync. The flusher is self-clocked: a batch is what
// was submitted while the previous sync was in flight, and a lone submit
// pays one sync, never a timer. Callers submit a dependency-closed commit
// group and receive an ack channel that closes only after the group's
// record has been flushed to the device — durability is acknowledged, never
// assumed.
//
// Merging commit groups is sound because it only coarsens atomicity: the
// merged record commits a superset all-or-none, so every member group is
// still all-or-none under any torn tail, which is all the recovery
// invariant needs (FuzzWALRecovery drives merged records through the
// every-prefix check). The win is the amortization: N groups flushed
// together cost one Medium.Sync instead of N.
//
// The Pipeline serializes all access to its DB: Perform, Abort, and the
// flusher share one mutex, so the DB's single-threaded invariants hold
// unchanged. Every write, fsync, create and unlink — the device sync and the
// checkpoint's persist step alike — happens outside that mutex, on the
// flusher, and a Perform only appends to the medium's log buffer, so a slow
// disk never stalls concurrent Performs.
type Pipeline struct {
	mu sync.Mutex // guards db, the current batch, stats
	db *DB

	// The current batch. Commit groups are disjoint (the engine commits
	// each transaction exactly once per run, and the DB tolerates a stray
	// duplicate idempotently), so member ids concatenate into one flat
	// slice, and every group in a batch shares one ack channel — the whole
	// batch becomes durable in the same record and sync. The slice's
	// backing array is recycled across flushes: the commit record copies
	// what it keeps, so steady-state submission allocates nothing per
	// group beyond the amortized ack channel.
	batchIDs    []model.TxnID
	batchAck    chan struct{}
	batchGroups int

	// err latches the first durable-medium failure from any DB call
	// (wrapping ErrDegraded, or fault.ErrCrash at an injected crash point).
	// Once set, every flush closes its ack without committing, every
	// Perform/Submit fails fast, and Abort does nothing: a medium that lost
	// a write cannot be trusted with the next one.
	err error

	// ckptEvery, when positive, opportunistically compacts the log after
	// a flush once RecordsSinceCheckpoint reaches it — captured only at
	// quiescent instants (no live transactions), so the checkpoint
	// discipline stays sound under load.
	ckptEvery int

	stats PipelineStats

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// PipelineStats is a point-in-time snapshot of the committer's counters,
// returned by Pipeline.Snapshot. Value copy; never aliases live state.
type PipelineStats struct {
	// Groups is the number of commit groups submitted.
	Groups int64
	// Txns is the number of transactions committed through the pipeline.
	Txns int64
	// Flushes is the number of durable flushes (one CommitGroup record
	// and one device sync each).
	Flushes int64
	// MaxBatch is the largest number of groups merged into one flush.
	MaxBatch int
	// Checkpoints is the number of opportunistic compacting checkpoints
	// taken (see Pipeline.AutoCheckpoint).
	Checkpoints int64
	// Degraded is 1 once the durable medium has persistently failed or
	// reached an injected crash point.
	Degraded int
}

// NewPipeline starts a committer over db. The interval parameter is ignored
// (the flusher has no batching window); it remains only because benchmark/
// still passes one, and goes with the next benchmark issue. Close must be
// called to stop the flusher; no methods may be called after Close.
func NewPipeline(db *DB, _ time.Duration) *Pipeline {
	p := &Pipeline{
		db:   db,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.flusher()
	return p
}

func (p *Pipeline) flusher() {
	defer close(p.done)
	for {
		select {
		case <-p.wake:
			p.flush()
		case <-p.quit:
			p.flush() // drain anything submitted before Close
			return
		}
	}
}

// flush commits the current batch in one record, syncs the device, then
// acks. The record append happens under mu (serialized with Perform/Abort,
// and with Submit — so the batch buffer can be recycled immediately: the
// record has already copied the members); the sync — on a file medium the
// write of everything buffered so far, then the fsync — and the ack happen
// outside it, while Performs keep appending to the other half of the
// medium's log buffer.
//
// A failed commit or sync latches p.err; the ack channel still closes —
// waiters unblock and learn the verdict from Err(). Durability is
// indeterminate for the failed batch (the record may or may not have
// reached the platter), so the only sound answer is "not acked".
func (p *Pipeline) flush() {
	p.mu.Lock()
	ids, ack, groups := p.batchIDs, p.batchAck, p.batchGroups
	var cerr error
	if p.err != nil {
		cerr = p.err
	} else if len(ids) > 0 {
		if cerr = p.db.CommitGroup(ids); cerr == nil {
			p.stats.Flushes++
			p.stats.Txns += int64(len(ids))
			if groups > p.stats.MaxBatch {
				p.stats.MaxBatch = groups
			}
		}
	}
	p.batchIDs = ids[:0]
	p.batchAck = nil
	p.batchGroups = 0
	p.mu.Unlock()
	if ack != nil {
		if cerr == nil {
			cerr = p.db.Sync()
		}
		if cerr != nil {
			p.mu.Lock()
			p.failLocked(cerr)
			p.mu.Unlock()
		}
		close(ack)
	}
	if cerr == nil {
		p.maybeCheckpoint()
	}
}

// maybeCheckpoint compacts the log once enough records have accumulated
// since the last checkpoint and the instant is quiescent. Only the capture
// runs under mu — it costs what changed since the last checkpoint and makes
// no syscall; the flusher (this goroutine) then persists it while Performs
// keep filling the log buffer.
func (p *Pipeline) maybeCheckpoint() {
	p.mu.Lock()
	var ck *Record
	if p.ckptEvery > 0 && p.err == nil && p.db.Live() == 0 && p.db.RecordsSinceCheckpoint() >= p.ckptEvery {
		ck, _ = p.db.capture() // quiescent, so it cannot refuse
	}
	p.mu.Unlock()
	if ck == nil {
		return
	}
	err := p.db.medium.backing.compact(ck)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		p.stats.Checkpoints++
	} else {
		p.failLocked(err)
	}
}

// AutoCheckpoint enables opportunistic compacting checkpoints after
// flushes: whenever the log has grown by at least every records past the
// last checkpoint AND no transaction is live, the flusher compacts. Call
// before submitting work.
func (p *Pipeline) AutoCheckpoint(every int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ckptEvery = every
}

// Err returns the latched durable-medium failure, nil while healthy. Once
// non-nil it never clears: an acked Submit whose ack closed after Err
// became non-nil must be treated as not durable.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Submit enqueues a dependency-closed commit group and returns a channel
// that closes once the group is durable (record flushed and synced). The
// slice is copied; the caller may reuse it. Groups must be disjoint — the
// engine guarantees each transaction commits exactly once per run.
func (p *Pipeline) Submit(ids []model.TxnID) <-chan struct{} {
	p.mu.Lock()
	if p.batchAck == nil {
		p.batchAck = make(chan struct{})
	}
	ack := p.batchAck
	p.batchIDs = append(p.batchIDs, ids...)
	p.batchGroups++
	p.stats.Groups++
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default: // a wake is already queued; the flusher will see our group
	}
	return ack
}

// failLocked latches err unless a failure is latched already. Caller holds
// mu.
func (p *Pipeline) failLocked(err error) {
	if p.err == nil {
		p.err, p.stats.Degraded = err, 1
	}
}

// mediumFailed tells a durable-medium failure from a caller's mistake (a
// step of a committed transaction, an abort set that is not closed).
func mediumFailed(err error) bool {
	return errors.Is(err, ErrDegraded) || errors.Is(err, fault.ErrCrash)
}

// Perform executes one step WAL-first under the pipeline's lock; see
// DB.Perform.
func (p *Pipeline) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return model.Step{}, p.err
	}
	step, err := p.db.Perform(t, seq, x, f)
	if mediumFailed(err) {
		p.failLocked(err)
	}
	return step, err
}

// Abort rolls back a dependency-closed set under the pipeline's lock; see
// DB.Abort. Transactions with an unflushed Submit in flight must not be
// aborted — the engine guarantees that by never wounding a committing
// transaction. Once the medium has failed, Abort is a no-op that returns
// nil: the device is gone, and recovery undoes every uncommitted update.
func (p *Pipeline) Abort(set map[model.TxnID]bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil
	}
	err := p.db.Abort(set)
	if mediumFailed(err) {
		p.failLocked(err)
		return nil
	}
	return err
}

// Values returns a copy of the current volatile state.
func (p *Pipeline) Values() map[model.EntityID]model.Value {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.db.Values()
}

// Committed reports whether t has a durable commit.
func (p *Pipeline) Committed(t model.TxnID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.db.Committed(t)
}

// RecordsSinceCheckpoint returns the current recovery replay bound; see
// DB.RecordsSinceCheckpoint.
func (p *Pipeline) RecordsSinceCheckpoint() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.db.RecordsSinceCheckpoint()
}

// Snapshot returns a value-copy of the committer's counters; see
// PipelineStats for the immutability contract.
func (p *Pipeline) Snapshot() PipelineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close flushes every group submitted so far, stops the flusher, and
// returns once it has exited. The underlying DB remains usable (e.g. for
// Crash/recovery); the Pipeline does not.
func (p *Pipeline) Close() {
	close(p.quit)
	<-p.done
}
