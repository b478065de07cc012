package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mla/internal/engine"
	"mla/internal/model"
	"mla/internal/sched"
)

// Step is one read-modify-write on an entity, the same shape the store
// applies everywhere else in the codebase.
type Step struct {
	Entity model.EntityID
	Apply  func(model.Value) (model.Value, string)
}

// Unit is one breakpoint-delimited unit of a transaction: the span between
// two breakpoints of the transaction's description. Each unit commits as
// one shot of the multi-shot protocol — strict two-phase locking inside
// the unit, locks released when the shot's participants have all voted its
// writes durable.
type Unit struct {
	Steps []Step
}

// Txn is a transaction declared as its sequence of units. Declaring units
// up front (rather than discovering steps by walking a model.ProgState) is
// what makes the multi-shot recovery rule implementable: a wound or crash
// inside unit i rolls back and retries exactly unit i, while units < i
// stay committed — the paper's smaller unit of recovery.
//
// Correctness contract: unit boundaries must be breakpoints at which every
// concurrent transaction may interleave (coarseness 2 in the paper's
// terms). Under that contract the Group's executions are strong partition
// serializable: strict within each shot, MLA-relaxed across shots. A
// single-unit transaction is plainly serializable.
type Txn struct {
	ID    model.TxnID
	Units []Unit
}

// GroupConfig configures a Group.
type GroupConfig struct {
	// Shards is the partition count (< 1 is pinned to 1).
	Shards int
	// NewStore builds shard i's store over its slice of the initial state.
	// Nil builds volatile stores. Per-shard WAL pipelines plug in here —
	// each shard then owns an independent group-commit pipeline, and a
	// cross-shard unit becomes one atomic log record per participant.
	NewStore func(i int, init map[model.EntityID]model.Value) engine.Store
}

// Outcome reports one submission's fate.
type Outcome struct {
	// Committed is true when every unit committed.
	Committed bool
	// UnitsCommitted counts the units whose shots committed — on a
	// cancelled submission this may be positive with Committed false:
	// committed shots are irrevocable, exactly the torn-transaction state
	// the recovery rules define.
	UnitsCommitted int
	// CrossShard is true when the transaction touched more than one shard.
	CrossShard bool
	// Restarts counts unit-level rollback-and-retry rounds (wounds).
	Restarts int
}

// shardNode is one partition's mini-engine: a wound-wait control over its
// own striped lock table, a store serialized by its own mutex (the same
// discipline the engine applies globally — here the mutex spans one shard,
// which is the whole point), and a wait-generation channel for blocked
// acquirers.
type shardNode struct {
	ctl   *sched.ShardedTwoPhase
	async engine.AsyncCommitter // non-nil when the store pipelines commits

	mu    sync.Mutex // serializes store operations
	store engine.Store

	nmu  sync.Mutex
	wait chan struct{}
}

// bump wakes every waiter blocked on this shard's lock state.
func (n *shardNode) bump() {
	n.nmu.Lock()
	close(n.wait)
	n.wait = make(chan struct{})
	n.nmu.Unlock()
}

// waitCh returns the current generation channel; take it before deciding
// to block so a release between the decision and the block cannot be
// missed.
func (n *shardNode) waitCh() <-chan struct{} {
	n.nmu.Lock()
	ch := n.wait
	n.nmu.Unlock()
	return ch
}

// unitState is the abort coordination record for one in-flight unit
// attempt. Wounds signal it; the owner polls it at acquisition points.
// Once the unit enters its commit round it is immune: committed shots are
// irrevocable, and the wounding requester only ever needs the locks, which
// the shot release hands over anyway.
type unitState struct {
	abortCh    chan struct{}
	aborted    atomic.Bool
	committing atomic.Bool
}

func (u *unitState) signal() {
	if u.committing.Load() {
		return
	}
	if u.aborted.CompareAndSwap(false, true) {
		close(u.abortCh)
	}
}

// Group is the partitioned entity store: GroupConfig.Shards mini-engines
// behind one Submit interface. All methods are safe for concurrent use;
// Submit is called from many goroutines at once, and independent shards
// proceed in parallel — the single engine mutex the unsharded hot path
// serializes on simply does not exist here.
type Group struct {
	router *Router
	nodes  []*shardNode

	// inflight maps a unit's sub-transaction ID to its abort record so a
	// wound decision naming the sub-ID can reach the owning goroutine.
	inflight sync.Map // model.TxnID -> *unitState

	prioSeq atomic.Int64
}

// NewGroup builds a partitioned store over init.
func NewGroup(cfg GroupConfig, init map[model.EntityID]model.Value) *Group {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(_ int, part map[model.EntityID]model.Value) engine.Store {
			return engine.NewVolatileStore(part)
		}
	}
	g := &Group{router: NewRouter(cfg.Shards)}
	parts := g.router.Partition(init)
	g.nodes = make([]*shardNode, cfg.Shards)
	for i := range g.nodes {
		store := cfg.NewStore(i, parts[i])
		n := &shardNode{
			ctl:   sched.NewShardedTwoPhase(0),
			store: store,
			wait:  make(chan struct{}),
		}
		n.async, _ = store.(engine.AsyncCommitter)
		g.nodes[i] = n
	}
	return g
}

// Router exposes the entity→shard assignment (benchmark/ builds
// shard-affine workloads with it).
func (g *Group) Router() *Router { return g.router }

// subID names unit ui of transaction t: the per-shot sub-transaction the
// stores and lock tables see. Committing the sub-ID at each participant is
// what makes the shot one atomic commit per shard while leaving later
// units free to roll back independently.
func subID(buf []byte, t model.TxnID, ui int) ([]byte, model.TxnID) {
	buf = append(buf[:0], t...)
	buf = append(buf, '#')
	buf = strconv.AppendInt(buf, int64(ui), 10)
	return buf, model.TxnID(buf)
}

// Submit executes txn to completion: each unit acquires its locks under
// wound-wait, performs its steps at the entities' home shards, and commits
// as one shot — participants vote durability (the async-commit ack), and
// only a unanimous round releases the unit's locks and moves the
// transaction forward. A wound rolls back and retries the current unit
// only. Submit returns when every unit has committed, or when ctx is
// cancelled (earlier units stay committed; see Outcome.UnitsCommitted).
func (g *Group) Submit(ctx context.Context, txn Txn) (Outcome, error) {
	out := Outcome{}
	if len(txn.Units) == 0 {
		out.Committed = true
		return out, nil
	}
	prio := g.prioSeq.Add(1)
	var buf []byte
	touched := int(-1) // home shard of the first step; -2 = cross-shard
	for ui := range txn.Units {
		var sub model.TxnID
		buf, sub = subID(buf, txn.ID, ui)
		for {
			done, parts, err := g.runUnit(ctx, sub, prio, &txn.Units[ui])
			for _, s := range parts {
				switch {
				case touched == -1:
					touched = s
				case touched != s:
					touched = -2
				}
			}
			if err != nil {
				return out, err
			}
			if done {
				break
			}
			out.Restarts++
			if err := ctx.Err(); err != nil {
				return out, err
			}
			// Capped backoff before retrying a wounded unit: the wound came
			// from an older transaction that may still hold what this unit
			// wants, and at a hot spot an instant retry mostly burns another
			// acquire-rollback round and wounds a third party on the way.
			// Priority is kept across retries, so the unit still ages to the
			// front.
			shift := out.Restarts
			if shift > 6 {
				shift = 6
			}
			time.Sleep(time.Duration(1<<shift) * 10 * time.Microsecond)
		}
		out.UnitsCommitted++
	}
	out.Committed = true
	out.CrossShard = touched == -2
	return out, nil
}

// runUnit runs one attempt of one unit. It returns done=false when the
// attempt was wounded and rolled back (the caller retries), and a non-nil
// err only for fatal conditions (context cancellation mid-acquire, store
// failure); on err the attempt has already been rolled back.
func (g *Group) runUnit(ctx context.Context, sub model.TxnID, prio int64, unit *Unit) (done bool, parts []int, err error) {
	u := &unitState{abortCh: make(chan struct{})}
	g.inflight.Store(sub, u)
	defer g.inflight.Delete(sub)

	var partsBuf [4]int
	parts = partsBuf[:0]
	seen := func(s int) bool {
		for _, p := range parts {
			if p == s {
				return true
			}
		}
		return false
	}
	// abandon rolls the attempt back at every participant and is runUnit's
	// result: cause, nil for a wound the caller retries. A store that fails
	// to undo is fatal either way — a retry would apply the unit on top of
	// its own leftovers.
	abandon := func(cause error) (bool, []int, error) {
		set := map[model.TxnID]bool{sub: true}
		for _, s := range parts {
			n := g.nodes[s]
			n.mu.Lock()
			aerr := n.store.Abort(set)
			n.mu.Unlock()
			n.ctl.Aborted([]model.TxnID{sub})
			n.bump()
			if aerr != nil {
				cause = errors.Join(cause, fmt.Errorf("shard %d: roll back %s: %w", s, sub, aerr))
			}
		}
		return false, parts, cause
	}

	for si := range unit.Steps {
		st, seq := &unit.Steps[si], si+1 // stores undo by Seq > 0: steps count from 1
		s := g.router.Shard(st.Entity)
		n := g.nodes[s]
		if !seen(s) {
			n.ctl.Begin(sub, prio)
			parts = append(parts, s)
		}
		// Acquire under wound-wait: Grant proceeds, Wait blocks on the
		// shard's generation channel, Abort names a younger holder to
		// wound — signal it and wait for its rollback to free the lock.
		for {
			ch := n.waitCh()
			d := n.ctl.Request(sub, seq, st.Entity)
			if d.Kind == sched.Grant {
				break
			}
			if d.Kind == sched.Abort {
				for _, v := range d.Victims {
					if rec, ok := g.inflight.Load(v); ok {
						rec.(*unitState).signal()
					}
				}
			}
			select {
			case <-ch:
			case <-u.abortCh:
			case <-ctx.Done():
				return abandon(ctx.Err())
			}
			if u.aborted.Load() {
				return abandon(nil)
			}
		}
		if u.aborted.Load() {
			return abandon(nil)
		}
		n.mu.Lock()
		_, perr := n.store.Perform(sub, seq, st.Entity, st.Apply)
		n.mu.Unlock()
		if perr != nil {
			return abandon(fmt.Errorf("shard %d: perform %s on %s: %w", s, sub, st.Entity, perr))
		}
	}

	// Shot commit round: each participant votes by making the sub-ID's
	// writes durable. With a pipelined store the vote is the async-commit
	// ack; otherwise the participant commits synchronously, which is a
	// unanimous yes by construction. Entering the round makes the unit
	// immune to wounds — shots are irrevocable once voting starts, and
	// the locks the wounding transaction wants are released right below.
	u.committing.Store(true)
	var votes []<-chan struct{}
	ids := []model.TxnID{sub}
	for _, s := range parts {
		n := g.nodes[s]
		n.mu.Lock()
		if n.async != nil {
			votes = append(votes, n.async.SubmitGroup(ids))
		} else {
			n.store.CommitGroup(ids)
		}
		n.mu.Unlock()
	}
	for _, ch := range votes {
		<-ch
	}
	for _, s := range parts {
		n := g.nodes[s]
		if ce, ok := n.store.(engine.CommitErrer); ok {
			if cerr := ce.CommitErr(); cerr != nil {
				return false, parts, fmt.Errorf("shard %d: shot commit %s: %w", s, sub, cerr)
			}
		}
	}
	// Unanimous: release the unit's locks (strict 2PL held them to here)
	// and retire the sub-transaction's handle at every participant.
	for _, s := range parts {
		n := g.nodes[s]
		n.ctl.Finished(sub)
		n.bump()
	}
	return true, parts, nil
}
