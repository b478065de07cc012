package sched

import (
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// Preventer implements the cycle-prevention strategy of Section 6 exactly:
// a step β of transaction t′ is delayed until, for every transaction t
// whose steps precede β in the coherent closure of the performed prefix, a
// breakpoint of level level(t,t′) follows t's last such step (or t has
// finished). Under that rule every edge of the coherent closure points
// forward in real time, so the closure is consistent with the performance
// order and therefore a partial order: every execution the Preventer
// admits is correctable (Theorem 2).
//
// The closure predecessors are taken from the same online coherent closure
// the Detector uses (property-tested equal to the batch Theorem 2 checker):
// before granting, coherent.Online.ForEachOpenPred previews the would-be
// step's predecessors without mutation and reports those whose segment is
// still open at the pair level. Earlier versions approximated the
// predecessor set by folding per-entity dependency maps forward; that
// scheme misses predecessors introduced by coherence rule (b) —
// segment-completion pins — and admitted non-correctable executions
// (TestPreventerSoundnessSeed67 pins the counterexamples). The direct-only
// ablation (prevent-direct, E10) is its own control: directPreventer.
//
// Committed transactions are sealed out of the closure (Retired), so the
// cost of a decision follows the transactions in flight, not the length of
// the run.
//
// Blocked requests are resolved by a waits-for graph with youngest-victim
// selection, the paper's assumed "priority scheme and rollback mechanism to
// insure that no initiated transaction gets blocked indefinitely".
type Preventer struct {
	closureHost

	// blockers is Request's scratch, kept for its capacity, and addBlocker
	// is the callback that fills it, bound once: ForEachOpenPred takes a
	// func value, and binding one per Request would allocate on every step.
	// The Preventer runs under its harness's serialization, so it needs no
	// locking.
	blockers   []model.TxnID
	addBlocker func(model.TxnID)
}

// NewPreventer builds the prevention control for the given nest and
// breakpoint specification (they must share k).
func NewPreventer(n *nest.Nest, spec breakpoint.Spec) *Preventer {
	p := &Preventer{}
	p.init(n, spec)
	p.addBlocker = func(u model.TxnID) {
		if !p.finished[u] {
			p.blockers = append(p.blockers, u)
		}
	}
	return p
}

// Name implements Control.
func (p *Preventer) Name() string { return "prevent" }

// Request implements Control: the Section 6 delay rule over the previewed
// closure predecessors, with waits-for deadlock resolution.
func (p *Preventer) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	p.blockers = p.blockers[:0]
	p.oc.ForEachOpenPred(t, x, p.addBlocker)
	if len(p.blockers) == 0 {
		p.waitFor.clear(t)
		return grant
	}
	waits := make(map[model.TxnID]bool, len(p.blockers))
	for _, u := range p.blockers {
		waits[u] = true
	}
	return p.waitFor.block(t, waits, p.prio, &p.stats)
}

// Performed implements Control: the granted step enters the closure; its
// breakpoint (if any) closes segments.
func (p *Preventer) Performed(t model.TxnID, _ int, x model.EntityID, cut int) {
	if !p.oc.AddStep(t, x) {
		// The delay rule makes a cycle at insertion impossible; hitting one
		// means the rule was violated — fail loudly.
		panic(fmt.Sprintf("sched: preventer admitted a cyclic step %s on %s", t, x))
	}
	if cut > 0 {
		p.oc.AddCut(t, cut)
	}
}
