package sched

import (
	"mla/internal/lock"
	"mla/internal/model"
)

// TwoPhase is strict two-phase locking [EGLT] over exclusive entity locks
// (every step in the paper's model is a read-modify-write), the
// serializability baseline. Deadlocks are resolved exactly as in the
// Preventer — a waits-for graph with youngest-victim selection — so the E5
// comparison isolates the effect of the atomicity criterion, not of the
// deadlock policy. All locks are held to transaction end, so aborts never
// cascade.
type TwoPhase struct {
	locks   *lock.Striped
	prio    map[model.TxnID]int64
	waitFor *waitGraph
	stats   Stats
}

// NewTwoPhase returns a strict 2PL control.
func NewTwoPhase() *TwoPhase {
	return &TwoPhase{
		locks:   lock.NewStriped(1),
		prio:    make(map[model.TxnID]int64),
		waitFor: newWaitGraph(),
	}
}

// Name implements Control.
func (tp *TwoPhase) Name() string { return "2pl" }

// Begin implements Control.
func (tp *TwoPhase) Begin(t model.TxnID, prio int64) { tp.prio[t] = prio }

// Request implements Control.
func (tp *TwoPhase) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	tp.stats.Requests++
	ok, holder := tp.locks.TryAcquire(t, x)
	if ok {
		tp.waitFor.clear(t)
		tp.stats.Grants++
		return grant
	}
	return tp.waitFor.block(t, map[model.TxnID]bool{holder: true}, tp.prio, &tp.stats)
}

// Performed implements Control.
func (*TwoPhase) Performed(model.TxnID, int, model.EntityID, int) {}

// Finished implements Control.
func (tp *TwoPhase) Finished(t model.TxnID) {
	tp.locks.Release(t)
	tp.waitFor.drop(t)
	delete(tp.prio, t)
}

// Aborted implements Control.
func (tp *TwoPhase) Aborted(victims []model.TxnID) {
	tp.stats.Aborts += len(victims)
	for _, t := range victims {
		tp.locks.Release(t)
		tp.waitFor.drop(t)
	}
}

// DeadlineAborted implements the DeadlineAborter capability.
func (tp *TwoPhase) DeadlineAborted(model.TxnID) { tp.stats.Deadlines++ }

// Stats implements Control.
func (tp *TwoPhase) Stats() *Stats { return &tp.stats }

// Timestamp is basic timestamp ordering [L]: each entity remembers the
// highest transaction priority (its begin timestamp) that has accessed it;
// a request from an older transaction than the entity's high-water mark is
// rejected and the requester restarts with a fresh timestamp. Because
// values are written in place, aborts cascade; the simulator closes the
// victim set under value dependencies.
type Timestamp struct {
	prio  map[model.TxnID]int64
	maxTS map[model.EntityID]int64
	stats Stats
}

// NewTimestamp returns a basic TO control.
func NewTimestamp() *Timestamp {
	return &Timestamp{prio: make(map[model.TxnID]int64), maxTS: make(map[model.EntityID]int64)}
}

// Name implements Control.
func (*Timestamp) Name() string { return "tso" }

// Begin implements Control.
func (ts *Timestamp) Begin(t model.TxnID, prio int64) { ts.prio[t] = prio }

// Request implements Control.
func (ts *Timestamp) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	ts.stats.Requests++
	if p := ts.prio[t]; p >= ts.maxTS[x] {
		ts.stats.Grants++
		return grant
	}
	return Decision{Kind: Abort, Victims: []model.TxnID{t}}
}

// Performed implements Control.
func (ts *Timestamp) Performed(t model.TxnID, _ int, x model.EntityID, _ int) {
	if p := ts.prio[t]; p > ts.maxTS[x] {
		ts.maxTS[x] = p
	}
}

// Finished implements Control.
func (ts *Timestamp) Finished(t model.TxnID) { delete(ts.prio, t) }

// Aborted implements Control.
func (ts *Timestamp) Aborted(victims []model.TxnID) { ts.stats.Aborts += len(victims) }

// NewPriority restarts an aborted transaction with a fresh timestamp — a
// transaction aborts under TO precisely because its timestamp is too old,
// so keeping it would livelock. Recognized by the simulator.
func (ts *Timestamp) NewPriority(_ model.TxnID, _, fresh int64) int64 { return fresh }

// DeadlineAborted implements the DeadlineAborter capability.
func (ts *Timestamp) DeadlineAborted(model.TxnID) { ts.stats.Deadlines++ }

// Stats implements Control.
func (ts *Timestamp) Stats() *Stats { return &ts.stats }
