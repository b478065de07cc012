package sched

import (
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
)

// closureHost is what the two closure controls, Preventer and Detector,
// share: the online coherent closure of the performed execution, each
// transaction's priority and finished mark, the waits-for graph (empty under
// the Detector, which never waits), the counters, and the lifecycle around
// them. The controls differ only in Name, Request and Performed — when a
// step enters the closure, and what a cycle means.
type closureHost struct {
	oc       *coherent.Online
	prio     map[model.TxnID]int64
	finished map[model.TxnID]bool
	waitFor  *waitGraph
	stats    Stats
}

// init sets up a host for the given nest and breakpoint specification (they
// must share k); h must not move afterwards, since the closure's seal hook
// is bound to it.
func (h *closureHost) init(n *nest.Nest, spec breakpoint.Spec) {
	if n.K() != spec.K() {
		panic("sched: nest and breakpoint spec disagree on k")
	}
	h.oc = coherent.NewOnline(n.K(), n.Level)
	h.prio = make(map[model.TxnID]int64)
	h.finished = make(map[model.TxnID]bool)
	h.waitFor = newWaitGraph()
	h.oc.OnSeal = h.forget
}

// Begin implements Control.
func (h *closureHost) Begin(t model.TxnID, prio int64) {
	h.prio[t] = prio
	delete(h.finished, t)
}

// Finished implements Control.
func (h *closureHost) Finished(t model.TxnID) {
	h.finished[t] = true
	h.waitFor.drop(t)
}

// Retired implements the Retirer capability: t committed, so it performs no
// further step and is never rolled back. The closure seals it, together
// with any earlier commit that was only waiting for t, as soon as all its
// closure-predecessors are sealable too (coherent.Online.Retire); forget
// then drops the control's own record of each sealed transaction. A sealed
// transaction is in no future cycle and is never a victim again.
func (h *closureHost) Retired(t model.TxnID) { h.oc.Retire(t) }

// forget frees the per-transaction state of a transaction that left the
// closure. A transaction with no live steps blocks nobody, so nothing is
// lost with the finished mark.
func (h *closureHost) forget(t model.TxnID) {
	delete(h.prio, t)
	delete(h.finished, t)
	h.stats.Sealed++
}

// ClosureSteps and ClosureSlots report the closure's width: the live steps
// it holds and the step slots (bitset width) it occupies. On a resident
// control both track the transactions in flight.
func (h *closureHost) ClosureSteps() int { return h.oc.Steps() }
func (h *closureHost) ClosureSlots() int { return h.oc.Slots() }

// Aborted implements Control: the victims' events leave the closure (in
// place when they are closure sinks, by replay otherwise), a Detector's
// victims like any other.
func (h *closureHost) Aborted(victims []model.TxnID) {
	drop := make(map[model.TxnID]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		delete(h.finished, t)
		h.waitFor.drop(t)
	}
	h.oc.Rebuild(drop)
}

// AbortedTo implements the simulator's partial-recovery hook: t was rolled
// back to seq = keep and resumes; its suffix leaves the closure.
func (h *closureHost) AbortedTo(t model.TxnID, keep int) {
	delete(h.finished, t)
	h.waitFor.drop(t)
	h.oc.RebuildPartial(map[model.TxnID]int{t: keep})
}

// DeadlineAborted implements the DeadlineAborter capability.
func (*closureHost) DeadlineAborted(model.TxnID) {}

// Stats implements Control.
func (h *closureHost) Stats() *Stats { return &h.stats }
