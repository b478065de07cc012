package model

import "sync"

// Handle is a dense integer identity assigned by an Interner: small,
// comparable, and usable as a slice index, which is what makes per-identity
// state (priorities, histogram rows, shard assignments) storable in flat
// arrays instead of string-keyed maps on hot paths.
type Handle uint32

// Mix scrambles the handle through a finalizing integer hash (the 32-bit
// splitmix/murmur finalizer). Handles are dense and assigned in first-sight
// order, so consecutive identities get consecutive handles; anything that
// buckets handles by modulus (shard routing, stripe selection) would see
// perfectly correlated placement without a mix. The mixed value is uniform
// in the low bits, stable for the life of the handle, and costs five
// arithmetic ops — no strings, no allocation.
func (h Handle) Mix() uint32 {
	x := uint32(h) + 0x9e3779b9 // avoid fixing Mix(0) == 0
	x ^= x >> 16
	x *= 0x21f0aaad
	x ^= x >> 15
	x *= 0x735a2d97
	x ^= x >> 15
	return x
}

// Interner assigns dense Handles to string-like identifiers (TxnID,
// EntityID). Handles are recycled through Release, so a long-lived session
// interning millions of transient transaction IDs keeps the handle space —
// and any slice indexed by it — bounded by the peak number of live
// identities, not by lifetime churn.
//
// Interner is safe for concurrent use; Lookup is a read-lock only.
type Interner[K ~string] struct {
	mu   sync.RWMutex
	ids  map[K]Handle
	free []Handle
	next Handle
}

// NewInterner returns an empty interner.
func NewInterner[K ~string]() *Interner[K] {
	return &Interner[K]{ids: make(map[K]Handle)}
}

// Intern returns the handle for k, assigning the lowest recycled (else the
// next fresh) handle on first sight. Interning an already-interned key
// returns its existing handle.
func (in *Interner[K]) Intern(k K) Handle {
	in.mu.RLock()
	h, ok := in.ids[k]
	in.mu.RUnlock()
	if ok {
		return h
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if h, ok = in.ids[k]; ok {
		return h
	}
	if n := len(in.free); n > 0 {
		h = in.free[n-1]
		in.free = in.free[:n-1]
	} else {
		h = in.next
		in.next++
	}
	in.ids[k] = h
	return h
}

// Release forgets k and recycles its handle for a future Intern. Releasing
// an unknown key is a no-op. The caller owns the invariant that no
// handle-indexed state still attributes meaning to the released handle.
func (in *Interner[K]) Release(k K) {
	in.mu.Lock()
	if h, ok := in.ids[k]; ok {
		delete(in.ids, k)
		in.free = append(in.free, h)
	}
	in.mu.Unlock()
}
