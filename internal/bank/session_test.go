package bank

import (
	"testing"

	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
)

func TestSessionRunsTransfersInSequence(t *testing.T) {
	s := &Session{Txn: "s1", Family: 0, Transfers: []Transfer{
		{Txn: "s1", Sources: []model.EntityID{"A"}, Targets: [2]model.EntityID{"B", "C"}, Amount: 50, Reserve: 1 << 30},
		{Txn: "s1", Sources: []model.EntityID{"B"}, Targets: [2]model.EntityID{"D", "E"}, Amount: 30, Reserve: 1 << 30},
	}}
	vals := map[model.EntityID]model.Value{"A": 100, "B": 0, "C": 0, "D": 0, "E": 0}
	e, err := model.RunSerial([]model.Program{s}, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Transfer 1: withdraw 50 from A, deposit into B. Transfer 2: withdraw
	// 30 from B, deposit into D.
	if vals["A"] != 50 || vals["B"] != 20 || vals["D"] != 30 {
		t.Errorf("balances: %v", vals)
	}
	// Seqs must be continuous across the inner transfers.
	for i, st := range e {
		if st.Seq != i+1 {
			t.Fatalf("step %d has seq %d", i, st.Seq)
		}
		if st.Txn != "s1" {
			t.Fatalf("step %d txn %s", i, st.Txn)
		}
	}
	// The last step of each inner transfer is labeled xfer-end.
	var ends int
	for _, st := range e {
		if st.Label == "xfer-end" {
			ends++
		}
	}
	if ends != 2 {
		t.Errorf("xfer-end labels = %d, want 2", ends)
	}
	if e[len(e)-1].Label != "xfer-end" {
		t.Error("session must end with an xfer-end step")
	}
}

func TestSessionConserves(t *testing.T) {
	p := DefaultSessionParams()
	p.Sessions = 5
	p.SessionLength = 3
	wl := GenerateSessions(p)
	vals := map[model.EntityID]model.Value{}
	for k, v := range wl.Init {
		vals[k] = v
	}
	e, err := model.RunSerial(wl.Programs, vals)
	if err != nil {
		t.Fatal(err)
	}
	inv := wl.Check(e, vals)
	if !inv.ConservationOK {
		t.Error("serial sessioned run must conserve money")
	}
	if inv.AuditsInexact != 0 {
		t.Errorf("%d inexact audits in a serial run", inv.AuditsInexact)
	}
	ok, err := coherent.MultilevelAtomic(e, wl.Nest, wl.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("serial run must be multilevel atomic")
	}
}

func TestSessionNestLevels(t *testing.T) {
	p := DefaultSessionParams()
	wl := GenerateSessions(p)
	sess := wl.SessionIDs()
	if len(sess) != p.Sessions {
		t.Fatalf("sessions = %d", len(sess))
	}
	audit := wl.audits[0].Txn
	// Audits share the customers' level-2 class (unlike the plain banking
	// workload, where they are isolated at level 1).
	if lv := wl.Nest.Level(sess[0], audit); lv != 2 {
		t.Errorf("session vs audit level = %d, want 2", lv)
	}
}

func TestSessionCutPlacement(t *testing.T) {
	p := DefaultSessionParams()
	wl := GenerateSessions(p)
	id := wl.SessionIDs()[0]
	end := []model.Step{{Txn: id, Seq: 3, Label: "xfer-end"}}
	if got := wl.Spec.CutAfter(id, end); got != 2 {
		t.Errorf("after xfer-end = %d, want 2", got)
	}
	mid := []model.Step{{Txn: id, Seq: 1, Label: "withdraw", Before: 500, After: 500 - paperAmount}}
	if got := wl.Spec.CutAfter(id, mid); got != 3 {
		t.Errorf("after an inner transfer's completed withdrawal = %d, want 3", got)
	}
}

// TestAuditBetweenTransfersIsAtomic: an audit interleaved exactly at a
// session's transfer boundary is multilevel atomic (and sees the conserved
// total); an audit interleaved inside a transfer is not correctable.
func TestAuditBetweenTransfersIsAtomic(t *testing.T) {
	s := &Session{Txn: "s1", Family: 0, Transfers: []Transfer{
		{Txn: "s1", Sources: []model.EntityID{"A"}, Targets: [2]model.EntityID{"B", "X"}, Amount: 40, Reserve: 1 << 30},
		{Txn: "s1", Sources: []model.EntityID{"A"}, Targets: [2]model.EntityID{"C", "X"}, Amount: 10, Reserve: 1 << 30},
	}}
	audit := &Audit{Txn: "a1", Accounts: []model.EntityID{"A", "B", "C"}, Result: "res"}
	pop := NewPopulation(World{}, 0, 0, nest.New(4), false)
	pop.Prepare(s, []string{"cust", "fam-0"})
	pop.Prepare(audit, []string{"cust", "audit"})
	n, spec := pop.Nest, pop.Spec
	init := map[model.EntityID]model.Value{"A": 100, "B": 0, "C": 0, "X": 0, "res": 0}

	run := func(order []int) model.Execution {
		vals := map[model.EntityID]model.Value{}
		for k, v := range init {
			vals[k] = v
		}
		e, err := model.Interleave([]model.Program{s, audit}, vals, order, false)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Session transfer 1 = 2 steps (withdraw A, deposit B); audit = 4
	// steps; session transfer 2 = 2 steps.
	atBoundary := run([]int{0, 0, 1, 1, 1, 1, 0, 0})
	ok, err := coherent.MultilevelAtomic(atBoundary, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("audit at the transfer boundary must be atomic")
	}
	if atBoundary[5].After != 100 {
		t.Errorf("audit result = %d, want the conserved 100", atBoundary[5].After)
	}
	// Audit splitting a transfer: money in transit, not correctable.
	inside := run([]int{0, 1, 1, 1, 1, 0, 0, 0})
	bad, err := coherent.Correctable(inside, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Error("audit inside a transfer must not be correctable")
	}
}

// SessionIDs returns the session transaction IDs, sorted.
func (wl *SessionWorkload) SessionIDs() []model.TxnID {
	var out []model.TxnID
	for _, p := range wl.Programs {
		if s, ok := p.(*Session); ok {
			out = append(out, s.Txn)
		}
	}
	model.SortTxnIDs(out)
	return out
}
