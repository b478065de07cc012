// Package lock provides the exclusive per-entity lock managers used by the
// strict two-phase-locking baselines [EGLT]. In the paper's model every step
// is an atomic read-modify-write, so all locks are exclusive; there is no
// shared mode. Deadlocks are resolved by wound-wait: an older requester
// wounds (aborts) a younger holder, a younger requester waits.
//
// Two managers share one semantics:
//
//   - Manager is the single-table manager. It is not safe for concurrent
//     use; the simulator and the single-mutex controls drive it serially.
//   - Striped shards the table by entity hash with one mutex per shard, so
//     independent entities take independent locks — the concurrent engine's
//     hot path. Because every entity lives in exactly one shard and shards
//     share no state, a Striped manager makes precisely the decisions a
//     Manager would on the same request sequence (pinned by
//     TestStripedDecisionEquivalence).
package lock

import "mla/internal/model"

// Outcome of an acquisition attempt.
type Outcome int

const (
	// Granted: the requester now holds the lock.
	Granted Outcome = iota
	// Wait: a higher-priority transaction holds the lock; retry later.
	Wait
	// Wound: the holder is younger; the caller must abort the returned
	// victim and retry.
	Wound
)

// Stats is a point-in-time snapshot of a lock table, returned by
// Striped.Snapshot. Like every Snapshot() in this codebase (sched, wal,
// net), the returned struct is a value copy: it never aliases live state,
// stays valid forever, and mutating it has no effect on the table.
type Stats struct {
	// Locked is the number of currently locked entities.
	Locked int
	// Holders is the number of transactions holding at least one lock.
	Holders int
	// Shards is the stripe count.
	Shards int
	// Entries is the number of transactions in Striped's per-transaction
	// index: those holding a lock or given a priority since their last
	// Release.
	Entries int
}

// Manager tracks exclusive entity locks. The zero value is not usable; call
// NewManager.
type Manager struct {
	holder map[model.EntityID]model.TxnID
	// held indexes holder→entities so Release is O(locks held), not
	// O(table size): the slice lists every entity t ever acquired in its
	// current lock epoch, appended once per first acquisition (re-acquiring
	// a held lock appends nothing, so there are no duplicates).
	held map[model.TxnID][]model.EntityID
	// free recycles held-index slices released by retired transactions, so
	// the steady-state lock path of a long run allocates no per-transaction
	// slices (a fresh holder would otherwise pay one per first acquisition
	// plus growth).
	free [][]model.EntityID
}

// maxFreeHeld caps the recycled-slice pool; beyond it, slices are left to
// the GC (the pool only needs to cover peak concurrent holders).
const maxFreeHeld = 64

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		holder: make(map[model.EntityID]model.TxnID),
		held:   make(map[model.TxnID][]model.EntityID),
	}
}

// Acquire attempts to take the exclusive lock on x for t. prio returns a
// transaction's priority; smaller values are older (higher priority). On
// Wound, victim is the current holder, which the caller must abort (its
// locks are released by Release) before retrying.
func (m *Manager) Acquire(t model.TxnID, x model.EntityID, prio func(model.TxnID) int64) (Outcome, model.TxnID) {
	out, h, _ := m.acquire(t, x, prio)
	return out, h
}

// acquire is Acquire that also reports whether the grant is t's first lock
// in this table, which Striped records in its held-stripe index.
func (m *Manager) acquire(t model.TxnID, x model.EntityID, prio func(model.TxnID) int64) (Outcome, model.TxnID, bool) {
	if h, locked := m.holder[x]; locked {
		switch {
		case h == t:
			return Granted, "", false
		case prio(t) < prio(h):
			return Wound, h, false
		}
		return Wait, h, false
	}
	m.holder[x] = t
	hs, have := m.held[t]
	if !have && len(m.free) > 0 {
		hs = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	}
	m.held[t] = append(hs, x)
	return Granted, "", !have
}

// TryAcquire takes the lock when it is free or already held by t, otherwise
// reporting the current holder. Callers that prefer deadlock detection over
// wound-wait use this directly.
func (m *Manager) TryAcquire(t model.TxnID, x model.EntityID) (bool, model.TxnID) {
	out, h := m.Acquire(t, x, func(model.TxnID) int64 { return 0 }) // equal priorities never wound
	return out == Granted, h
}

// Holds reports whether t holds the lock on x.
func (m *Manager) Holds(t model.TxnID, x model.EntityID) bool {
	return m.holder[x] == t
}

// HolderOf returns the current holder of x ("" when unlocked). Deadlock
// probes chase waits-for edges with it: the edge from a waiter leads to
// whoever holds the entity it is blocked on.
func (m *Manager) HolderOf(x model.EntityID) model.TxnID { return m.holder[x] }

// Release frees every lock held by t (commit or abort — strict 2PL). It
// walks only t's own held index, so the cost is proportional to the locks
// released, independent of the table size (BenchmarkReleaseManyHolders
// pins this).
func (m *Manager) Release(t model.TxnID) {
	hs, have := m.held[t]
	if !have {
		return
	}
	for _, x := range hs {
		delete(m.holder, x) // held[t] lists exactly the entities t holds
	}
	delete(m.held, t)
	if cap(hs) > 0 && len(m.free) < maxFreeHeld {
		clear(hs) // drop entity-string references before pooling
		m.free = append(m.free, hs[:0])
	}
}

// Locked returns the number of currently locked entities.
func (m *Manager) Locked() int { return len(m.holder) }
