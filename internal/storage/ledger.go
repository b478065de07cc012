package storage

import (
	"math"
	"slices"

	"mla/internal/model"
)

// Ledger is the recovery bookkeeping both hosts (internal/sim and
// internal/engine) drive: which uncommitted steps authored each entity's
// values, newest first, which authors each transaction has observed, and the
// two fixpoints those facts decide — the abort closure (who must roll back
// with a victim, Section 6's cascading rollback) and the commit group (who
// may commit together, Section 6's commitment chaining). Policy stays in the
// host and arrives as arguments: which victims, how much of each to keep,
// when a group is handed to the store.
//
// The ledger sees every performed step with its values, every rollback
// with its kept prefix and every irrevocable commit decision, so it is also
// the one record of a run (Record, Execution): no host keeps a trace.
//
// A Ledger is not safe for concurrent use; the engine calls it under its
// mutex, the simulator is single-threaded.
type Ledger struct {
	txns   map[model.TxnID]*Txn
	author map[model.EntityID]authorRef
	// fin is the finished queue, with stale entries Group drops.
	fin []*Txn
	// Scratch reused across calls, so the closure of an abort allocates
	// nothing but its result.
	frontier, next []model.TxnID
	adds           uint64 // Add calls so far; each registration's mark
	// The record, kept only after Record: every observed step in order, a
	// note per rolled-back or decided transaction, each group's size.
	recording bool
	steps     []model.Step
	notes     []note
	groups    []int
}

// note records that after the first at recorded steps, id was rolled back
// to keep (0: wholly) or, with keep == decided, its commit group formed.
type note struct {
	at, keep int
	id       model.TxnID
}

const decided = -1

// Txn is one transaction's entry in a Ledger. A host embeds it in its own
// per-transaction record, reports completion through Finish, and reads the
// marks the ledger sets.
type Txn struct {
	ID       model.TxnID
	Finished bool // wants to commit; set by Finish, cleared by a whole-transaction rollback or Remove
	// Decided: a commit group containing the transaction has formed. The
	// decision is irrevocable — the transaction is immune to rollback and
	// satisfies its dependents' dependencies — even while the host is still
	// waiting for the group to become durable. Set by Group.
	Decided bool
	// Committed: the host reported the group durable. Set by Committed.
	Committed bool

	deps map[model.TxnID]int // uncommitted author -> max author seq observed
	// Its value-changing steps and the transactions that depend on it (the
	// reverse index); stale entries are checked against the live maps on use.
	writes     []write
	dependents []model.TxnID
	inc        uint64 // which Add registered the record
	cand       bool   // Group's candidate mark, false outside Group
}

// authorRef identifies the uncommitted step that wrote an entity's current
// value.
type authorRef struct {
	txn model.TxnID
	seq int
}

// write is a value-changing step and the author it displaced, registered by
// Add call inc: an id re-added after a commit must not pass for the old step.
type write struct {
	x    model.EntityID
	seq  int
	prev authorRef
	inc  uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		txns:   make(map[model.TxnID]*Txn),
		author: make(map[model.EntityID]authorRef),
	}
}

// Add registers t, reset, under id. The record's dependency map and lists
// are kept for reuse, so a host that recycles its records recycles them too.
func (l *Ledger) Add(t *Txn, id model.TxnID) {
	clear(t.deps)
	l.adds++
	*t = Txn{ID: id, deps: t.deps, writes: t.writes[:0], dependents: t.dependents[:0], inc: l.adds}
	l.txns[id] = t
}

// Remove forgets a transaction that will take no further part, and the
// values it still authors with it: one that committed is already gone, one
// that was wholly rolled back authors nothing. The record leaves unfinished,
// so a stale entry of it in the finished queue never joins a group.
func (l *Ledger) Remove(id model.TxnID) {
	if t := l.txns[id]; t != nil {
		t.Finished = false
		l.drop(t)
	}
}

// drop deletes t from the ledger with the values it still authors.
func (l *Ledger) drop(t *Txn) {
	delete(l.txns, t.ID)
	for _, w := range t.writes {
		if l.author[w.x].txn == t.ID {
			delete(l.author, w.x)
		}
	}
}

// Observe records a performed step of t: observing a value authored by
// another uncommitted transaction ties t's fate to that step, and a step
// that changed the value becomes its author.
func (l *Ledger) Observe(t *Txn, s model.Step) {
	a, ok := l.author[s.Entity]
	at := t // a's record; with no author, the empty prev never matches one
	if ok && a.txn != t.ID {
		at = l.txns[a.txn]
		if seq, had := t.deps[a.txn]; a.seq > seq {
			if t.deps == nil {
				t.deps = make(map[model.TxnID]int)
			}
			t.deps[a.txn] = a.seq
			if !had {
				at.dependents = append(at.dependents, t.ID)
			}
		}
	}
	if s.After != s.Before {
		t.writes = append(t.writes, write{x: s.Entity, seq: s.Seq, prev: a, inc: at.inc})
		l.author[s.Entity] = authorRef{txn: s.Txn, seq: s.Seq}
	}
	if l.recording {
		l.steps = append(l.steps, s)
	}
}

// Finish records that t ran to completion and wants to commit.
func (l *Ledger) Finish(t *Txn) {
	t.Finished = true
	l.fin = append(l.fin, t)
}

// Group decides the next commit group: the largest set of finished,
// undecided transactions whose every dependency lies in the set or is
// already decided. Dependencies can cycle (t1 read from t2 and t2 from t1 on
// different entities), which is the paper's observation that commitment
// under multilevel atomicity chains; such transactions commit together. A
// dependency on an author the ledger no longer knows blocks: only a host
// that abandoned an attempt without rolling it back leaves one. Group
// marks the members Decided and appends their ids, sorted, to buf[:0]; the
// result is empty when no group forms. Only the finished queue is visited.
//
// The ids are the caller's buffer: a host that passes the same buffer every
// time allocates nothing once it has grown, and whoever it hands the group
// to reads the ids during the call and copies what it keeps.
func (l *Ledger) Group(buf []model.TxnID) []model.TxnID {
	all, q := l.fin, l.fin[:0]
	for _, t := range all {
		if t.Finished && !t.Decided && !t.cand {
			t.cand = true
			q = append(q, t)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range q {
			if !t.cand {
				continue
			}
			for dep := range t.deps {
				if d := l.txns[dep]; d == nil || !(d.Decided || d.cand) {
					t.cand, changed = false, true
					break
				}
			}
		}
	}
	ids := buf[:0]
	l.fin = q[:0]
	for _, t := range q {
		if !t.cand {
			l.fin = append(l.fin, t)
			continue
		}
		t.cand, t.Decided = false, true
		ids = append(ids, t.ID)
		l.note(t.ID, decided)
	}
	clear(all[len(l.fin):])
	model.SortTxnIDs(ids)
	if l.recording && len(ids) > 0 {
		l.groups = append(l.groups, len(ids))
	}
	return ids
}

// Committed records that the group ids is durable: its members are marked
// and leave the ledger, and since a committed author no longer creates
// dependencies, the values they authored and their dependents' dependencies
// on them go too. Ids the host already removed are skipped.
func (l *Ledger) Committed(ids []model.TxnID) {
	for _, id := range ids {
		if t := l.txns[id]; t != nil {
			t.Committed = true
			l.drop(t)
			for _, d := range t.dependents {
				if dt := l.txns[d]; dt != nil {
					delete(dt.deps, id)
				}
			}
		}
	}
}

// Close extends keep — the host's victims, each with the sequence number it
// is rolled back to, 0 for the whole transaction — to its closure under
// value dependencies: an undecided transaction that observed a step beyond
// its author's kept prefix joins, wholly (keep 0), and so in turn do its own
// dependents. The host names only victims that may roll back; the decided
// never join. Close returns the closed set's ids, sorted.
func (l *Ledger) Close(keep map[model.TxnID]int) []model.TxnID {
	frontier, next := l.frontier[:0], l.next[:0]
	for v := range keep {
		frontier = append(frontier, v)
	}
	for len(frontier) > 0 {
		next = next[:0]
		for _, f := range frontier {
			ft := l.txns[f]
			if ft == nil {
				continue
			}
			for _, id := range ft.dependents {
				t := l.txns[id]
				if k, victim := keep[id]; t == nil || t.Decided || (victim && k == 0) {
					continue
				}
				if seq, ok := t.deps[f]; ok && seq > keep[f] {
					keep[id] = 0
					next = append(next, id)
				}
			}
		}
		frontier, next = next, frontier
	}
	l.frontier, l.next = frontier, next
	return model.SortedKeys(keep)
}

// RolledBack records that the store has undone the closed set keep and the
// host has reset its records: a wholly rolled-back transaction starts over
// with no dependencies and unfinished (one rolled back to a breakpoint keeps
// its dependencies — an over-approximation that only delays its commit), and
// each entity an undone step wrote goes back to its newest surviving author.
// Undone authors are an entity's newest: every later value-changing step
// observed them, so Close rolled its transaction back too.
func (l *Ledger) RolledBack(keep map[model.TxnID]int) {
	for id := range keep {
		if t := l.txns[id]; t != nil {
			for _, w := range t.writes {
				l.restore(w.x, keep)
			}
		}
	}
	for id, k := range keep {
		l.note(id, k)
		if t := l.txns[id]; t != nil {
			if i := slices.IndexFunc(t.writes, func(w write) bool { return w.seq > k }); i >= 0 {
				t.writes = t.writes[:i]
			}
			if k == 0 {
				clear(t.deps)
				t.Finished = false
				t.dependents = t.dependents[:0]
			}
		}
	}
}

// restore walks x's author down past the steps keep undoes, each to the
// author it displaced. One that has left the ledger committed, and commits
// are an entity's oldest authors.
func (l *Ledger) restore(x model.EntityID, keep map[model.TxnID]int) {
	for a, ok := l.author[x]; ok; {
		if k, undone := keep[a.txn]; !undone || a.seq <= k {
			l.author[x] = a
			return
		}
		ws := l.txns[a.txn].writes
		w := ws[slices.IndexFunc(ws, func(w write) bool { return w.seq == a.seq })]
		p := l.txns[w.prev.txn]
		a, ok = w.prev, p != nil && p.inc == w.inc
	}
	delete(l.author, x)
}

// Record turns on the run's record, read back through Execution and Groups.
// A host that serves indefinitely leaves it off: the record grows per step.
func (l *Ledger) Record() { l.recording = true }

func (l *Ledger) note(id model.TxnID, keep int) {
	if l.recording {
		l.notes = append(l.notes, note{at: len(l.steps), keep: keep, id: id})
	}
}

// Execution returns the recorded steps of decided transactions that no later
// rollback undid, in performance order — the committed execution, groups
// decided but not yet durable included — or nil unless Record was called.
// It replays the notes backwards, keeping per transaction the highest
// sequence number that survives: none until its decision, all at it, then
// no more than each earlier rollback kept. An id's decision starts afresh,
// since its later rollbacks belong to a later registration.
func (l *Ledger) Execution() model.Execution {
	if !l.recording {
		return nil
	}
	cut := make(map[model.TxnID]int) // 0, the absent value, keeps nothing
	out := make(model.Execution, 0, len(l.steps))
	j := len(l.notes)
	for i := len(l.steps) - 1; i >= 0; i-- {
		for ; j > 0 && l.notes[j-1].at > i; j-- {
			if n := l.notes[j-1]; n.keep == decided {
				cut[n.id] = math.MaxInt
			} else {
				cut[n.id] = min(cut[n.id], n.keep)
			}
		}
		if s := l.steps[i]; s.Seq <= cut[s.Txn] {
			out = append(out, s)
		}
	}
	slices.Reverse(out)
	return out
}

// Groups returns each decided group's size in decision order (the ledger's
// own slice), nil unless Record was called.
func (l *Ledger) Groups() []int { return l.groups }
