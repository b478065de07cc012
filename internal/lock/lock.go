// Package lock provides the exclusive per-entity lock table used by the
// strict two-phase-locking baselines [EGLT]. In the paper's model every step
// is an atomic read-modify-write, so all locks are exclusive; there is no
// shared mode. Deadlocks are resolved by wound-wait: an older requester
// wounds (aborts) a younger holder, a younger requester waits.
//
// Striped is the one table. It shards entities by hash with one mutex per
// shard, so independent entities take independent locks — the concurrent
// engine's hot path. The serial controls (sched.TwoPhase, each
// shard.SimControl node) use one stripe. Every entity lives in exactly one
// shard and shards share no lock state, so the stripe count changes where
// state lives, never what is decided (pinned by
// TestStripedDecisionEquivalence against a map-backed reference table).
package lock

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
