package sched

import (
	"sync"
	"sync/atomic"

	"mla/internal/lock"
	"mla/internal/model"
)

// ShardedTwoPhase is strict two-phase locking with wound-wait over a
// striped lock table — the concurrent engine's scalable control. Unlike
// TwoPhase it needs no waits-for graph: wound-wait is inherently
// deadlock-free (a transaction only ever waits for a strictly older one,
// so wait chains are ordered by age and cannot close into cycles — even
// cycles spanning lock shards, which no single shard could see). That is
// what lets Request run under nothing but the one shard mutex of the
// requested entity: the decision provably depends on that entity's lock
// state and the two transactions' fixed priorities, nothing else.
//
// All methods are safe for concurrent use (the Concurrent marker); stats
// are atomics folded into a Stats struct on demand. Priorities live in the
// lock table's per-transaction record beside the entities the transaction
// holds: Begin sets one, the wound-wait comparison reads it under t's index
// stripe only, and the Release at Finished or Aborted takes the record out,
// so a resident session's control state stays bounded by peak concurrency
// rather than lifetime transaction count.
type ShardedTwoPhase struct {
	locks *lock.Striped

	// prioFn is locks.Priority bound once at construction: Acquire takes a
	// func value, and binding per Request allocated on every step.
	prioFn func(model.TxnID) int64

	waits, wounds atomic.Int64

	statsMu  sync.Mutex
	statsOut Stats
}

// NewShardedTwoPhase returns a wound-wait 2PL control striped over the
// given number of lock shards (≤0 picks a default suited to the engine's
// worker parallelism).
func NewShardedTwoPhase(shards int) *ShardedTwoPhase {
	if shards <= 0 {
		shards = 16
	}
	stp := &ShardedTwoPhase{locks: lock.NewStriped(shards)}
	stp.prioFn = stp.locks.Priority
	return stp
}

// ConcurrentSafe implements the Concurrent marker.
func (*ShardedTwoPhase) ConcurrentSafe() {}

// StepQuiescentSafe implements the StepQuiescent marker: strict 2PL grants
// change only when locks are released at Finished/Aborted, never because
// some other transaction performed a step.
func (*ShardedTwoPhase) StepQuiescentSafe() {}

// Name implements Control.
func (*ShardedTwoPhase) Name() string { return "2pl-sharded" }

// Begin implements Control: t's priority goes into its lock-table entry.
func (stp *ShardedTwoPhase) Begin(t model.TxnID, prio int64) { stp.locks.SetPriority(t, prio) }

// Request implements Control: wound-wait on the entity's shard. Older
// requester wounds the younger holder; younger requester waits.
func (stp *ShardedTwoPhase) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	out, victim := stp.locks.Acquire(t, x, stp.prioFn)
	switch out {
	case lock.Granted:
		return grant
	case lock.Wound:
		stp.wounds.Add(1)
		return Decision{Kind: Abort, Victims: []model.TxnID{victim}}
	default:
		stp.waits.Add(1)
		return wait
	}
}

// Performed implements Control.
func (*ShardedTwoPhase) Performed(model.TxnID, int, model.EntityID, int) {}

// Finished implements Control: strict 2PL releases everything at end, and
// the Release drops t's priority with its locks — an aborted transaction
// sets it again at its restart's Begin.
func (stp *ShardedTwoPhase) Finished(t model.TxnID) { stp.locks.Release(t) }

// Aborted implements Control.
func (stp *ShardedTwoPhase) Aborted(victims []model.TxnID) {
	for _, t := range victims {
		stp.locks.Release(t)
	}
}

// ReleaseAll implements the Releaser capability: drop every lock t still
// holds. The engine calls it for grants that
// raced past a rollback of t, and when t is parked for good.
func (stp *ShardedTwoPhase) ReleaseAll(t model.TxnID) { stp.locks.Release(t) }

// DeadlineAborted implements the DeadlineAborter capability.
func (*ShardedTwoPhase) DeadlineAborted(model.TxnID) {}

// Stats implements Control. The returned pointer refers to a fold of the
// atomic counters taken at call time; unlike the serial controls it is a
// snapshot, not live state.
func (stp *ShardedTwoPhase) Stats() *Stats {
	stp.statsMu.Lock()
	defer stp.statsMu.Unlock()
	stp.statsOut = Stats{Waits: int(stp.waits.Load()), Wounds: int(stp.wounds.Load())}
	return &stp.statsOut
}

// LockSnapshot exposes the striped table's counters for benchmarks.
func (stp *ShardedTwoPhase) LockSnapshot() lock.Stats { return stp.locks.Snapshot() }
