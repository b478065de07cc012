package sched

import (
	"mla/internal/breakpoint"
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
	closureHost
}

// NewDetector builds the detection control for the given nest and
// breakpoint specification (they must share k).
func NewDetector(n *nest.Nest, spec breakpoint.Spec) *Detector {
	d := &Detector{}
	d.init(n, spec)
	return d
}

// Name implements Control.
func (d *Detector) Name() string { return "detect" }

// Request implements Control. The step is tentatively added to the closure;
// on a cycle the closure withdraws it and the youngest transaction involved
// is chosen as the victim.
func (d *Detector) Request(t model.TxnID, _ int, x model.EntityID) Decision {
	d.stats.Requests++
	if d.oc.AddStep(t, x) {
		d.stats.Grants++
		return grant
	}
	d.stats.Cycles++
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
