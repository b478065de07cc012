package storage

import "mla/internal/model"

// Ledger is the recovery bookkeeping both hosts (internal/sim and
// internal/engine) drive: which uncommitted step authored each entity's
// current value, which authors each transaction has observed, and the two
// fixpoints those facts decide — the abort closure (who must roll back with
// a victim, Section 6's cascading rollback) and the commit group (who may
// commit together, Section 6's commitment chaining). Policy stays in the
// host and arrives as arguments: which victims, how much of each to keep,
// when a group is handed to the store, which steps survived a rollback.
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
}

// Txn is one transaction's entry in a Ledger. A host embeds it in its own
// per-transaction record, reports completion through Finish, and reads the
// marks the ledger sets.
type Txn struct {
	ID       model.TxnID
	Finished bool // wants to commit; set by Finish, cleared by a whole-transaction rollback
	// Decided: a commit group containing the transaction has formed. The
	// decision is irrevocable — the transaction is immune to rollback and
	// satisfies its dependents' dependencies — even while the host is still
	// waiting for the group to become durable. Set by Group.
	Decided bool
	// Committed: the host reported the group durable. Set by Committed.
	Committed bool

	deps map[model.TxnID]int // uncommitted author -> max author seq observed
	// Entities it authored and transactions that depend on it (the reverse
	// index); stale entries are checked against the live maps on use.
	authored   []model.EntityID
	dependents []model.TxnID
	cand       bool // Group's candidate mark, false outside Group
}

// authorRef identifies the uncommitted step that wrote an entity's current
// value.
type authorRef struct {
	txn model.TxnID
	seq int
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
	*t = Txn{ID: id, deps: t.deps, authored: t.authored[:0], dependents: t.dependents[:0]}
	l.txns[id] = t
}

// Remove forgets a transaction that will take no further part: one that
// committed is already gone, one that was wholly rolled back has neither
// dependents nor authored values left.
func (l *Ledger) Remove(id model.TxnID) { delete(l.txns, id) }

// Observe records a performed step of t: observing a value authored by
// another uncommitted transaction ties t's fate to that step, and a step
// that changed the value becomes its author.
func (l *Ledger) Observe(t *Txn, s model.Step) {
	a, ok := l.author[s.Entity]
	if seq, had := t.deps[a.txn]; ok && a.txn != t.ID && a.seq > seq {
		if t.deps == nil {
			t.deps = make(map[model.TxnID]int)
		}
		t.deps[a.txn] = a.seq
		if at := l.txns[a.txn]; !had && at != nil {
			at.dependents = append(at.dependents, t.ID)
		}
	}
	if s.After != s.Before && (!ok || a.txn != t.ID) {
		t.authored = append(t.authored, s.Entity)
	}
	l.wrote(s)
}

func (l *Ledger) wrote(s model.Step) {
	if s.After != s.Before {
		l.author[s.Entity] = authorRef{txn: s.Txn, seq: s.Seq}
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
// returns the members' ids sorted and marks them Decided, or nil (and no
// allocation) when no group forms. Only the finished queue is visited.
func (l *Ledger) Group() []model.TxnID {
	all, q := l.fin, l.fin[:0]
	for _, t := range all {
		if t.Finished && !t.Decided && !t.cand && l.txns[t.ID] == t {
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
	var ids []model.TxnID
	l.fin = q[:0]
	for _, t := range q {
		if !t.cand {
			l.fin = append(l.fin, t)
			continue
		}
		t.cand, t.Decided = false, true
		ids = append(ids, t.ID)
	}
	clear(all[len(l.fin):])
	model.SortTxnIDs(ids)
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
			delete(l.txns, id)
			for _, x := range t.authored {
				if l.author[x].txn == id {
					delete(l.author, x)
				}
			}
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
// the authors are what a replay of the surviving uncommitted steps, which
// the host enumerates in performance order, makes them.
func (l *Ledger) RolledBack(keep map[model.TxnID]int, surviving func(yield func(model.Step))) {
	for id, k := range keep {
		if t := l.txns[id]; t != nil && k == 0 {
			clear(t.deps)
			t.Finished = false
			t.authored, t.dependents = t.authored[:0], t.dependents[:0]
		}
	}
	clear(l.author)
	surviving(l.wrote)
}
