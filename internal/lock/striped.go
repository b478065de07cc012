package lock

import (
	"math/bits"
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
	// index is the per-transaction index: for each transaction with an
	// entry, a mask of the shards where it holds a lock (shard i is bit
	// i%64) and the priority SetPriority gave it, striped by transaction
	// hash (≥ 16 wide) so no mutex is shared by all transactions.
	index []indexStripe
}

// stripe is one shard's table. held lists each holder's entities, so a
// Release costs the locks it frees, not the table size; free recycles
// released held slices, so a steady lock path allocates none.
type stripe struct {
	mu     sync.Mutex
	holder map[model.EntityID]model.TxnID
	held   map[model.TxnID][]model.EntityID
	free   [][]model.EntityID
	_      [16]byte // pad to a 64-byte cache line so shard mutexes don't false-share
}

// maxFreeHeld caps a stripe's recycled-slice pool; beyond it, slices are
// left to the GC (the pool only needs to cover peak concurrent holders).
const maxFreeHeld = 64

type indexStripe struct {
	mu      sync.Mutex
	entries map[model.TxnID]txnEntry
	_       [48]byte // as stripe
}

// txnEntry is a transaction's index entry: the shards it holds locks in and
// its wound-wait priority. Release deletes both.
type txnEntry struct {
	mask uint64
	prio int64
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
		s.shards[i].held = make(map[model.TxnID][]model.EntityID)
	}
	for i := range s.index {
		s.index[i].entries = make(map[model.TxnID]txnEntry)
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

// SetPriority records t's wound-wait priority in its index entry, where
// Priority reads it until Release deletes the entry. Only t's index stripe
// is locked.
func (s *Striped) SetPriority(t model.TxnID, prio int64) {
	ix := s.indexOf(t)
	ix.mu.Lock()
	e := ix.entries[t]
	e.prio = prio
	ix.entries[t] = e
	ix.mu.Unlock()
}

// Priority returns the priority SetPriority recorded for t, or 0 when t has
// no entry. It is a valid prio callback for Acquire.
func (s *Striped) Priority(t model.TxnID) int64 {
	ix := s.indexOf(t)
	ix.mu.Lock()
	p := ix.entries[t].prio
	ix.mu.Unlock()
	return p
}

// Acquire attempts to take the exclusive lock on x for t. prio returns a
// transaction's priority; smaller values are older (higher priority). On
// Wound, victim is the current holder, which the caller must abort (its
// locks are released by Release) before retrying. Only x's shard is locked,
// and on t's first lock there t's index stripe, to set the shard's bit.
func (s *Striped) Acquire(t model.TxnID, x model.EntityID, prio func(model.TxnID) int64) (Outcome, model.TxnID) {
	i := fnv(x) & s.mask
	sh := &s.shards[i]
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
	hs, have := sh.held[t]
	if !have {
		if n := len(sh.free); n > 0 {
			hs, sh.free = sh.free[n-1], sh.free[:n-1]
		}
		ix := s.indexOf(t)
		ix.mu.Lock()
		e := ix.entries[t]
		e.mask |= 1 << (i % 64)
		ix.entries[t] = e
		ix.mu.Unlock()
	}
	sh.held[t] = append(hs, x)
	return Granted, ""
}

// TryAcquire takes the lock when it is free or already held by t, otherwise
// reporting the current holder. Callers that prefer deadlock detection over
// wound-wait use this directly.
func (s *Striped) TryAcquire(t model.TxnID, x model.EntityID) (bool, model.TxnID) {
	out, h := s.Acquire(t, x, func(model.TxnID) int64 { return 0 }) // equal priorities never wound
	return out == Granted, h
}

// Holds reports whether t holds the lock on x.
func (s *Striped) Holds(t model.TxnID, x model.EntityID) bool { return s.HolderOf(x) == t }

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
// it takes t's entry out of the index and visits only the shards its mask
// names, so holding nothing costs one index probe. An Acquire by t racing
// it lands in a shard still to be visited, or sets a fresh bit that the
// next Release of t consumes.
func (s *Striped) Release(t model.TxnID) {
	ix := s.indexOf(t)
	ix.mu.Lock()
	held := ix.entries[t].mask
	delete(ix.entries, t)
	ix.mu.Unlock()
	for ; held != 0; held &= held - 1 {
		for i := bits.TrailingZeros64(held); i < len(s.shards); i += 64 {
			sh := &s.shards[i]
			sh.mu.Lock()
			if hs, have := sh.held[t]; have {
				for _, x := range hs {
					delete(sh.holder, x) // held[t] lists exactly what t holds here
				}
				delete(sh.held, t)
				if len(sh.free) < maxFreeHeld {
					clear(hs) // drop entity-string references before pooling
					sh.free = append(sh.free, hs[:0])
				}
			}
			sh.mu.Unlock()
		}
	}
}

// Locked returns the number of currently locked entities; see Snapshot.
func (s *Striped) Locked() int { return s.Snapshot().Locked }

// Snapshot returns a value-copy of the table's counters summed over shards;
// see Stats for the immutability contract. Holders counts per-shard holder
// entries, so a transaction holding locks in k shards contributes k. Sums
// are consistent per shard only: acquisitions may land between shard reads.
func (s *Striped) Snapshot() Stats {
	out := Stats{Shards: len(s.shards)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Locked += len(sh.holder)
		out.Holders += len(sh.held)
		sh.mu.Unlock()
	}
	for i := range s.index {
		ix := &s.index[i]
		ix.mu.Lock()
		out.Entries += len(ix.entries)
		ix.mu.Unlock()
	}
	return out
}
