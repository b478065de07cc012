package sched

import (
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
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
// before granting, the would-be step's predecessor set is previewed without
// mutation (coherent.Online.ForEachPredOfNewStep) and each predecessor
// transaction's boundary position is checked in O(extent). Earlier versions
// approximated the predecessor set by folding per-entity dependency maps
// forward; that scheme misses predecessors introduced by coherence rule (b)
// — segment-completion pins — and admitted non-correctable executions
// (TestPreventerSoundnessSeed67 pins the counterexamples).
//
// Committed transactions are sealed out of the closure (Retired), so the
// cost of a decision follows the transactions in flight, not the length of
// the run.
//
// Blocked requests are resolved by a waits-for graph with youngest-victim
// selection, the paper's assumed "priority scheme and rollback mechanism to
// insure that no initiated transaction gets blocked indefinitely".
//
// Setting TrackTransitive to false replaces the closure preview with the
// naive direct-conflict check (per-entity last accessors only). It is
// unsound — E10 demonstrates admitted non-correctable executions — and is
// retained purely as the ablation: it is also exactly the naive
// nested-transaction specialization the paper's Section 7 leaves open.
type Preventer struct {
	nest *nest.Nest
	spec breakpoint.Spec
	k    int

	// TrackTransitive selects the sound closure-based delay rule (true,
	// default) or the naive direct-only ablation (false).
	TrackTransitive bool

	oc       *coherent.Online
	prio     map[model.TxnID]int64
	finished map[model.TxnID]bool

	// Direct-mode (ablation) state.
	direct     map[model.TxnID]*dtxnState
	lastAccess map[model.EntityID]map[model.TxnID]int

	// blockers is Request's scratch, kept for its capacity. The Preventer
	// runs under its harness's serialization, so it needs no locking.
	blockers []model.TxnID

	waitFor *waitGraph
	stats   Stats
}

type dtxnState struct {
	bound    []int // bound[lv]: latest boundary position with coarseness <= lv
	finished bool
}

// NewPreventer builds the prevention control for the given nest and
// breakpoint specification (they must share k).
func NewPreventer(n *nest.Nest, spec breakpoint.Spec) *Preventer {
	if n.K() != spec.K() {
		panic("sched: nest and breakpoint spec disagree on k")
	}
	p := &Preventer{
		nest:            n,
		spec:            spec,
		k:               n.K(),
		TrackTransitive: true,
		oc:              coherent.NewOnline(n.K(), n.Level),
		prio:            make(map[model.TxnID]int64),
		finished:        make(map[model.TxnID]bool),
		direct:          make(map[model.TxnID]*dtxnState),
		lastAccess:      make(map[model.EntityID]map[model.TxnID]int),
		waitFor:         newWaitGraph(),
	}
	p.oc.OnSeal = p.forget
	return p
}

// Name implements Control.
func (p *Preventer) Name() string {
	if !p.TrackTransitive {
		return "prevent-direct"
	}
	return "prevent"
}

// Begin implements Control.
func (p *Preventer) Begin(t model.TxnID, prio int64) {
	p.prio[t] = prio
	delete(p.finished, t)
	if !p.TrackTransitive {
		p.direct[t] = &dtxnState{bound: make([]int, p.k+1)}
	}
}

// closed reports whether u's step at seq is closed off for a level-lv
// observer: u finished, or a B(lv) boundary follows the step.
func (p *Preventer) closed(u model.TxnID, seq, lv int) bool {
	if p.finished[u] {
		return true
	}
	if p.TrackTransitive {
		return p.oc.SegmentClosedAfter(u, seq, lv)
	}
	d := p.direct[u]
	if d == nil || d.finished {
		return true
	}
	return d.bound[lv] >= seq
}

// Request implements Control: the Section 6 delay rule over the previewed
// closure predecessors, with waits-for deadlock resolution.
func (p *Preventer) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	p.stats.Requests++
	p.blockers = p.blockers[:0]
	collect := func(u model.TxnID, seq int) {
		if u != t && !p.closed(u, seq, p.nest.Level(u, t)) {
			p.blockers = append(p.blockers, u)
		}
	}
	if p.TrackTransitive {
		p.oc.ForEachPredOfNewStep(t, x, collect)
	} else {
		for u, s := range p.lastAccess[x] {
			collect(u, s)
		}
	}
	if len(p.blockers) == 0 {
		p.waitFor.clear(t)
		p.stats.Grants++
		return grant
	}
	waits := make(map[model.TxnID]bool, len(p.blockers))
	for _, u := range p.blockers {
		waits[u] = true
	}
	p.waitFor.setWaits(t, waits)
	if cycle := p.waitFor.cycleThrough(t); len(cycle) > 0 {
		victim := Youngest(cycle, func(u model.TxnID) int64 {
			if pr, ok := p.prio[u]; ok {
				return pr
			}
			return -1
		})
		p.waitFor.clear(t)
		if victim != t {
			p.stats.Wounds++
		}
		return Decision{Kind: Abort, Victims: []model.TxnID{victim}}
	}
	p.stats.Waits++
	return wait
}

// Performed implements Control: the granted step enters the closure; its
// breakpoint (if any) closes segments.
func (p *Preventer) Performed(t model.TxnID, seq int, x model.EntityID, cut int) {
	if p.TrackTransitive {
		if !p.oc.AddStep(t, x) {
			// The delay rule makes a cycle at insertion impossible; hitting
			// one means the rule was violated — fail loudly.
			panic(fmt.Sprintf("sched: preventer admitted a cyclic step %s on %s", t, x))
		}
		if cut > 0 {
			p.oc.AddCut(t, cut)
		}
		return
	}
	d := p.direct[t]
	if cut > 0 {
		for lv := cut; lv <= p.k; lv++ {
			d.bound[lv] = seq
		}
	}
	if p.lastAccess[x] == nil {
		p.lastAccess[x] = make(map[model.TxnID]int)
	}
	p.lastAccess[x][t] = seq
}

// Finished implements Control.
func (p *Preventer) Finished(t model.TxnID) {
	p.finished[t] = true
	if d := p.direct[t]; d != nil {
		d.finished = true
	}
	p.waitFor.drop(t)
}

// Retired implements the Retirer capability: t committed, so it performs no
// further step and is never rolled back. The closure seals it, together
// with any earlier commit that was only waiting for t, as soon as all its
// closure-predecessors are sealable too (coherent.Online.Retire); forget
// then drops the Preventer's own record of each sealed transaction.
func (p *Preventer) Retired(t model.TxnID) {
	if p.TrackTransitive {
		p.oc.Retire(t)
	} else {
		p.forget(t)
	}
}

// forget frees the per-transaction state of a transaction that left the
// closure. closed answers true for a transaction with no live steps, so
// nothing is lost with the finished mark.
func (p *Preventer) forget(t model.TxnID) {
	delete(p.prio, t)
	delete(p.finished, t)
	delete(p.direct, t)
	p.stats.Sealed++
}

// ClosureSteps and ClosureSlots report the closure's width: the live steps
// it holds and the step slots (bitset width) it occupies. On a resident
// control both track the transactions in flight.
func (p *Preventer) ClosureSteps() int { return p.oc.Steps() }
func (p *Preventer) ClosureSlots() int { return p.oc.Slots() }

// Aborted implements Control: victims' events leave the closure entirely.
func (p *Preventer) Aborted(victims []model.TxnID) {
	p.stats.Aborts += len(victims)
	drop := make(map[model.TxnID]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		delete(p.finished, t)
		delete(p.direct, t)
		p.waitFor.drop(t)
	}
	if p.TrackTransitive {
		p.oc.Rebuild(drop)
		return
	}
	for x, m := range p.lastAccess {
		for t := range drop {
			delete(m, t)
		}
		if len(m) == 0 {
			delete(p.lastAccess, x)
		}
	}
}

// AbortedTo implements the simulator's partial-recovery hook: t was rolled
// back to seq = keep and resumes; its suffix leaves the closure.
func (p *Preventer) AbortedTo(t model.TxnID, keep int) {
	p.stats.Aborts++
	delete(p.finished, t)
	p.waitFor.drop(t)
	if p.TrackTransitive {
		p.oc.RebuildPartial(map[model.TxnID]int{t: keep})
		return
	}
	if d := p.direct[t]; d != nil {
		for lv := 1; lv <= p.k; lv++ {
			if d.bound[lv] > keep {
				d.bound[lv] = keep
			}
		}
	}
	for x, m := range p.lastAccess {
		if s, ok := m[t]; ok && s > keep {
			if keep == 0 {
				delete(m, t)
			} else {
				m[t] = keep
			}
		}
		if len(m) == 0 {
			delete(p.lastAccess, x)
		}
	}
}

// DeadlineAborted implements the DeadlineAborter capability.
func (p *Preventer) DeadlineAborted(model.TxnID) { p.stats.Deadlines++ }

// Stats implements Control.
func (p *Preventer) Stats() *Stats { return &p.stats }
