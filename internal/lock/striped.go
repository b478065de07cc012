package lock

import (
	"sync"

	"mla/internal/model"
)

// Striped is the entity-hashed, sharded lock table: N independent holder
// tables, each behind its own mutex. Every entity maps to exactly one shard,
// so a decision about x involves only x's shard — requests on entities in
// different shards proceed in parallel with no shared cache line beyond the
// shard array itself. The wound-wait priority rule, single-holder, and
// wound-only-strictly-younger properties all hold per shard and therefore
// globally, because no lock state spans shards.
//
// Striped is safe for concurrent use. The prio callback passed to Acquire is
// invoked while the shard mutex is held; it must not call back into the
// manager, except through Priority.
type Striped struct {
	shards []stripe
	mask   uint32
	// index is the per-transaction index: one record per transaction that
	// holds a lock or was given a priority since its last Release, striped
	// by transaction hash (≥ 16 wide) so no mutex is shared by all
	// transactions. A shard mutex may be held while an index stripe's is
	// taken, never the reverse.
	index []indexStripe
}

// stripe is one shard's table: each locked entity's holder.
type stripe struct {
	mu     sync.Mutex
	holder map[model.EntityID]model.TxnID
	_      [48]byte // pad to a 64-byte cache line so shard mutexes don't false-share
}

// maxFreeRecs caps an index stripe's recycled-record pool; beyond it,
// records are left to the GC (the pool only needs to cover peak concurrent
// transactions).
const maxFreeRecs = 64

type indexStripe struct {
	mu      sync.Mutex
	entries map[model.TxnID]*txnRec
	free    []*txnRec
	_       [24]byte // as stripe
}

// txnRec is a transaction's record: its wound-wait priority and the
// entities it holds, in every shard. Release takes it out of the index and
// frees exactly those entities.
type txnRec struct {
	prio int64
	held []model.EntityID
}

// NewStriped returns a manager with the given number of shards, rounded up
// to a power of two (minimum 1).
func NewStriped(shards int) *Striped {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Striped{shards: make([]stripe, n), mask: uint32(n - 1), index: make([]indexStripe, max(n, 16))}
	for i := range s.shards {
		s.shards[i].holder = make(map[model.EntityID]model.TxnID)
	}
	for i := range s.index {
		s.index[i].entries = make(map[model.TxnID]*txnRec)
	}
	return s
}

// fnv is FNV-1a: entities hash to shards, transactions to index stripes.
func fnv[T ~string](x T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(x); i++ {
		h = (h ^ uint32(x[i])) * 16777619
	}
	return h
}

// shardOf hashes an entity to its shard.
func (s *Striped) shardOf(x model.EntityID) *stripe { return &s.shards[fnv(x)&s.mask] }

// indexOf hashes a transaction to its index stripe.
func (s *Striped) indexOf(t model.TxnID) *indexStripe {
	return &s.index[fnv(t)&uint32(len(s.index)-1)]
}

// rec returns t's record, taking a recycled one for a transaction without
// one. Caller holds ix.mu.
func (ix *indexStripe) rec(t model.TxnID) *txnRec {
	r := ix.entries[t]
	if r == nil {
		if n := len(ix.free); n > 0 {
			r, ix.free = ix.free[n-1], ix.free[:n-1]
		} else {
			r = &txnRec{}
		}
		ix.entries[t] = r
	}
	return r
}

// SetPriority records t's wound-wait priority in its record, where Priority
// reads it until Release takes the record out. Only t's index stripe is
// locked.
func (s *Striped) SetPriority(t model.TxnID, prio int64) {
	ix := s.indexOf(t)
	ix.mu.Lock()
	ix.rec(t).prio = prio
	ix.mu.Unlock()
}

// Priority returns the priority SetPriority recorded for t, or 0 when t has
// no record. It is a valid prio callback for Acquire.
func (s *Striped) Priority(t model.TxnID) int64 {
	ix := s.indexOf(t)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if r := ix.entries[t]; r != nil {
		return r.prio
	}
	return 0
}

// Acquire attempts to take the exclusive lock on x for t. prio returns a
// transaction's priority; smaller values are older (higher priority). On
// Wound, victim is the current holder, which the caller must abort (its
// locks are released by Release) before retrying. Only x's shard is locked,
// and on a grant of a free entity t's index stripe, to append x to t's
// record.
func (s *Striped) Acquire(t model.TxnID, x model.EntityID, prio func(model.TxnID) int64) (Outcome, model.TxnID) {
	sh := s.shardOf(x)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if h, locked := sh.holder[x]; locked {
		switch {
		case h == t:
			return Granted, ""
		case prio(t) < prio(h):
			return Wound, h
		}
		return Wait, h
	}
	sh.holder[x] = t
	ix := s.indexOf(t)
	ix.mu.Lock()
	r := ix.rec(t)
	r.held = append(r.held, x)
	ix.mu.Unlock()
	return Granted, ""
}

// TryAcquire takes the lock when it is free or already held by t, otherwise
// reporting the current holder. Callers that prefer deadlock detection over
// wound-wait use this directly.
func (s *Striped) TryAcquire(t model.TxnID, x model.EntityID) (bool, model.TxnID) {
	out, h := s.Acquire(t, x, func(model.TxnID) int64 { return 0 }) // equal priorities never wound
	return out == Granted, h
}

// HolderOf returns the current holder of x ("" when unlocked). Deadlock
// probes chase waits-for edges with it: the edge from a waiter leads to
// whoever holds the entity it is blocked on.
func (s *Striped) HolderOf(x model.EntityID) model.TxnID {
	sh := s.shardOf(x)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.holder[x]
}

// Release frees every lock held by t (strict 2PL) and forgets its priority:
// it takes t's record out of the index and frees exactly the entities it
// lists, each under its own shard's mutex, so holding nothing costs one
// index probe. An Acquire by t racing it either finds an entity still held
// (granted, and freed by this Release) or starts a fresh record that the
// next Release of t consumes.
func (s *Striped) Release(t model.TxnID) {
	ix := s.indexOf(t)
	ix.mu.Lock()
	r := ix.entries[t]
	delete(ix.entries, t)
	ix.mu.Unlock()
	if r == nil {
		return
	}
	for _, x := range r.held {
		sh := s.shardOf(x)
		sh.mu.Lock()
		delete(sh.holder, x) // only this record's Release frees x
		sh.mu.Unlock()
	}
	clear(r.held) // drop entity-string references before pooling
	*r = txnRec{held: r.held[:0]}
	ix.mu.Lock()
	if len(ix.free) < maxFreeRecs {
		ix.free = append(ix.free, r)
	}
	ix.mu.Unlock()
}

// Snapshot returns a value-copy of the table's counters; see Stats for the
// immutability contract. Sums are consistent per stripe only: acquisitions
// may land between stripe reads.
func (s *Striped) Snapshot() Stats {
	out := Stats{Shards: len(s.shards)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Locked += len(sh.holder)
		sh.mu.Unlock()
	}
	for i := range s.index {
		ix := &s.index[i]
		ix.mu.Lock()
		out.Entries += len(ix.entries)
		for _, r := range ix.entries {
			if len(r.held) > 0 {
				out.Holders++
			}
		}
		ix.mu.Unlock()
	}
	return out
}
