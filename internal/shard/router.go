// Package shard partitions the entity store across processors: a Router
// assigns every entity a home shard by hashing its interned handle, a Group
// runs one mini-engine per shard (own lock manager, own store, own commit
// pipeline) behind a coordinator that executes single-shard transactions
// entirely at their home shard and commits cross-shard transactions with a
// multi-shot protocol — each breakpoint-delimited unit prepares and commits
// as one shot, the natural fit between Lynch's multilevel atomicity and
// Chockler & Gotsman's multi-shot atomic commit. The correctness frame is
// Abadi's "strong partition serializable": strict two-phase locking within
// each shot, MLA-relaxed interleaving across shot boundaries.
//
// SimControl is the simulator-facing face of the same design: a
// sched.Control whose per-shard lock tables live at the owning processors
// of a simulated message bus (internal/net), with lock requests, grants,
// and per-shot participant votes carried on typed messages, epoch fencing
// against stale incarnations, anti-entropy resync after crashes, and
// edge-chasing probes for deadlock cycles that span shards — the same
// robustness machinery internal/dist proved out on the E18 chaos grid.
package shard

import (
	"mla/internal/model"
)

// Router owns the entity→shard assignment. Entities are interned into
// dense handles (model.Interner) and routed by the handle's mixed hash, so
// a routing decision on the hot path costs one interner lookup and five
// arithmetic ops, and every component that needs placement — the Group's
// coordinator, the simulator control, the serve front-end's home-shard
// session pinning — agrees on it by construction.
//
// Router is safe for concurrent use (the interner is; the rest is
// immutable after construction).
type Router struct {
	shards int
	ids    *model.Interner[model.EntityID]
}

// NewRouter returns a router over n shards (n < 1 is pinned to 1).
func NewRouter(n int) *Router {
	if n < 1 {
		n = 1
	}
	return &Router{shards: n, ids: model.NewInterner[model.EntityID]()}
}

// Shard returns x's home shard in [0, n) for a router of n shards. The
// assignment is stable for the router's lifetime: handles are interned once
// and never released, so the peak interned population is the entity
// universe, which a partitioned store holds resident anyway.
func (r *Router) Shard(x model.EntityID) int {
	return int(r.ids.Intern(x).Mix()) % r.shards
}

// Partition splits an initial state by home shard: slot i holds exactly the
// entities routed to shard i. Per-shard stores are seeded with their slice,
// so the union of the shard stores' Values() is the full state and the
// intersection is empty.
func (r *Router) Partition(init map[model.EntityID]model.Value) []map[model.EntityID]model.Value {
	parts := make([]map[model.EntityID]model.Value, r.shards)
	for i := range parts {
		parts[i] = make(map[model.EntityID]model.Value)
	}
	for x, v := range init {
		parts[r.Shard(x)][x] = v
	}
	return parts
}
