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
	// Scratch reused across calls, so the commit probe that follows every
	// finish and the closure of an abort allocate nothing but their result.
	group          map[model.TxnID]*Txn
	frontier, next []model.TxnID
}

// Txn is one transaction's entry in a Ledger. A host embeds it in its own
// per-transaction record, sets Finished when the program has run to
// completion, and reads the two marks the ledger sets.
type Txn struct {
	ID       model.TxnID
	Finished bool // wants to commit; cleared by a whole-transaction rollback
	// Decided: a commit group containing the transaction has formed. The
	// decision is irrevocable — the transaction is immune to rollback and
	// satisfies its dependents' dependencies — even while the host is still
	// waiting for the group to become durable. Set by Group.
	Decided bool
	// Committed: the host reported the group durable. Set by Committed.
	Committed bool

	deps map[model.TxnID]int // uncommitted author -> max author seq observed
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
		group:  make(map[model.TxnID]*Txn),
	}
}

// Add registers t, reset, under id. The record's dependency map is kept for
// reuse, so a host that recycles its records recycles the map with them.
func (l *Ledger) Add(t *Txn, id model.TxnID) {
	clear(t.deps)
	*t = Txn{ID: id, deps: t.deps}
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
	if a, ok := l.author[s.Entity]; ok && a.txn != t.ID && a.seq > t.deps[a.txn] {
		if t.deps == nil {
			t.deps = make(map[model.TxnID]int)
		}
		t.deps[a.txn] = a.seq
	}
	l.wrote(s)
}

func (l *Ledger) wrote(s model.Step) {
	if s.After != s.Before {
		l.author[s.Entity] = authorRef{txn: s.Txn, seq: s.Seq}
	}
}

// Group decides the next commit group: the largest set of finished,
// undecided transactions whose every dependency lies in the set or is
// already decided. Dependencies can cycle (t1 read from t2 and t2 from t1 on
// different entities), which is the paper's observation that commitment
// under multilevel atomicity chains; such transactions commit together. A
// dependency on an author the ledger no longer knows blocks: only a host
// that abandoned an attempt without rolling it back leaves one. Group
// returns the members' ids sorted and marks them Decided, or nil when no
// group forms.
func (l *Ledger) Group() []model.TxnID {
	in := l.group
	clear(in)
	for id, t := range l.txns {
		if t.Finished && !t.Decided {
			in[id] = t
		}
	}
	for changed := true; changed; {
		changed = false
		for id, t := range in {
			for dep := range t.deps {
				if d := l.txns[dep]; d == nil || !(d.Decided || in[dep] != nil) {
					delete(in, id)
					changed = true
					break
				}
			}
		}
	}
	if len(in) == 0 {
		return nil
	}
	for _, t := range in {
		t.Decided = true
	}
	return model.SortedKeys(in)
}

// Committed records that the group ids is durable: its members are marked
// and leave the ledger, and since a committed author no longer creates
// dependencies, the values they authored and the dependencies on them go
// too. Ids the host already removed are skipped.
func (l *Ledger) Committed(ids []model.TxnID) {
	for _, id := range ids {
		if t := l.txns[id]; t != nil {
			t.Committed = true
			delete(l.txns, id)
		}
	}
	for x, a := range l.author {
		if l.txns[a.txn] == nil {
			delete(l.author, x)
		}
	}
	for _, t := range l.txns {
		for _, id := range ids {
			delete(t.deps, id)
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
		for id, t := range l.txns {
			if k, victim := keep[id]; t.Decided || (victim && k == 0) {
				continue
			}
			for _, f := range frontier {
				if seq, ok := t.deps[f]; ok && seq > keep[f] {
					keep[id] = 0
					next = append(next, id)
					break
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
		}
	}
	clear(l.author)
	surviving(l.wrote)
}
