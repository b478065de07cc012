package sched

import (
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
)

// Detector implements the cycle-detection strategy of Section 6: steps run
// optimistically while the coherent closure of the dependency relation ≤e
// of the performed execution is maintained online; when a step would close
// a cycle — i.e. would make the execution non-correctable by Theorem 2 —
// the youngest transaction involved is rolled back and the closure is
// rebuilt without it. Committed transactions are sealed out of the closure
// (Retired), exactly as under the Preventer.
//
// The paper predicts that "fewer cycles would be detected using the
// multilevel atomicity definition than if strict serializability were
// required, leading to fewer rollbacks" — experiment E4 measures exactly
// this by running the Detector with an MLA specification versus the k=2
// serializability specification on identical workloads.
type Detector struct {
	nest *nest.Nest
	spec breakpoint.Spec
	oc   *coherent.Online

	prio     map[model.TxnID]int64
	finished map[model.TxnID]bool

	stats Stats
}

// NewDetector builds the detection control for the given nest and
// breakpoint specification.
func NewDetector(n *nest.Nest, spec breakpoint.Spec) *Detector {
	if n.K() != spec.K() {
		panic("sched: nest and breakpoint spec disagree on k")
	}
	d := &Detector{
		nest:     n,
		spec:     spec,
		oc:       coherent.NewOnline(n.K(), n.Level),
		prio:     make(map[model.TxnID]int64),
		finished: make(map[model.TxnID]bool),
	}
	d.oc.OnSeal = d.forget
	return d
}

// Name implements Control.
func (d *Detector) Name() string { return "detect" }

// Begin implements Control.
func (d *Detector) Begin(t model.TxnID, prio int64) {
	d.prio[t] = prio
	delete(d.finished, t)
}

// Request implements Control. The step is tentatively added to the closure;
// on a cycle it is withdrawn and the youngest transaction involved is
// chosen as the victim.
func (d *Detector) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	d.stats.Requests++
	if d.oc.AddStep(t, x) {
		d.stats.Grants++
		return grant
	}
	d.stats.Cycles++
	d.oc.PopStep()
	victim := d.pickVictim(append(d.oc.CycleTxns(), t))
	if victim != t {
		d.stats.Wounds++
	}
	return Decision{Kind: Abort, Victims: []model.TxnID{victim}}
}

// pickVictim chooses the youngest (largest priority) unfinished transaction
// among the candidates, falling back to the last candidate (the requester).
func (d *Detector) pickVictim(candidates []model.TxnID) model.TxnID {
	victim := candidates[len(candidates)-1]
	best := int64(-1)
	for _, c := range candidates {
		if d.finished[c] {
			continue
		}
		if p, ok := d.prio[c]; ok && p > best {
			best = p
			victim = c
		}
	}
	return victim
}

// Performed implements Control: it records the breakpoint following the
// step, releasing pinned obligations.
func (d *Detector) Performed(t model.TxnID, _ int, _ model.EntityID, cut int) {
	if cut > 0 {
		d.oc.AddCut(t, cut)
	}
}

// Finished implements Control.
func (d *Detector) Finished(t model.TxnID) { d.finished[t] = true }

// Retired implements the Retirer capability: t committed, so the closure
// may seal it (coherent.Online.Retire). A sealed transaction is in no
// future cycle and so is never a victim candidate again.
func (d *Detector) Retired(t model.TxnID) { d.oc.Retire(t) }

// forget frees the per-transaction state of a transaction that left the
// closure.
func (d *Detector) forget(t model.TxnID) {
	delete(d.prio, t)
	delete(d.finished, t)
	d.stats.Sealed++
}

// ClosureSteps and ClosureSlots report the closure's width; see Preventer.
func (d *Detector) ClosureSteps() int { return d.oc.Steps() }
func (d *Detector) ClosureSlots() int { return d.oc.Slots() }

// AbortedTo implements the simulator's partial-recovery hook: transaction
// t's events beyond seq = keep are removed and the closure replayed; t
// resumes from the kept prefix.
func (d *Detector) AbortedTo(t model.TxnID, keep int) {
	delete(d.finished, t)
	d.stats.Aborts++
	d.oc.RebuildPartial(map[model.TxnID]int{t: keep})
}

// Aborted implements Control: the victims' events are removed and the
// closure replayed. This also cleans the dirty state left by a rejected
// AddStep.
func (d *Detector) Aborted(victims []model.TxnID) {
	d.stats.Aborts += len(victims)
	drop := make(map[model.TxnID]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		delete(d.finished, t)
	}
	d.oc.Rebuild(drop)
}

// DeadlineAborted implements the DeadlineAborter capability.
func (d *Detector) DeadlineAborted(model.TxnID) { d.stats.Deadlines++ }

// Stats implements Control.
func (d *Detector) Stats() *Stats { return &d.stats }
