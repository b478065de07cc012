package bank

import (
	"fmt"
	"math/rand"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// Population is the Section 4.2 banking application over an open population
// of programs, the one place its class paths and breakpoint rule are
// written. A caller draws a program's parameters (its seeded stream stays its
// own), builds the program here with its class path, and brackets its run
// with Prepare and Cleanup: on a resident engine.Session, SubmitOpts.Prepare
// and Cleanup, which hold the engine mutex as Spec.CutAfter does, so the
// in-flight table needs no lock of its own.
type Population struct {
	World    World
	Accounts []model.EntityID // World.Accounts(), built once

	// Nest receives every prepared program's class path; nil when no
	// control or recorder reads classes.
	Nest *nest.Nest

	// Spec is the Section 4.2 breakpoint rule over the in-flight table. A
	// transfer's boundary after the withdrawal that completes its phase,
	// and a session's after each completed transfer ("xfer-end"), are
	// class-wide (2): the rest of the level-2 class may interleave there.
	// Every other interior boundary of either is family-level (3), and
	// audits expose none below the singleton level (4).
	Spec breakpoint.Spec

	amount   model.Value                   // transfer goal (the paper's $100)
	reserve  model.Value                   // first-deposit top-up level (the paper's $125)
	classes  bool                          // build audit and credit class paths
	famPath  [][]string                    // each family's customer class path
	inflight map[model.TxnID]model.Program // prepared transfers and sessions
}

const classCust = "cust"

// NewPopulation builds the population over w. n may be nil. Audit and
// credit class paths are built only when something reads them: the nest,
// or (classes) a caller that declares them elsewhere, such as a spool.
func NewPopulation(w World, amount, reserve model.Value, n *nest.Nest, classes bool) *Population {
	p := &Population{
		World: w, Accounts: w.Accounts(), Nest: n, amount: amount, reserve: reserve,
		classes:  classes || n != nil,
		inflight: make(map[model.TxnID]model.Program),
	}
	for f := 0; f < w.Families; f++ {
		p.famPath = append(p.famPath, []string{classCust, fmt.Sprintf("fam-%02d", f)})
	}
	p.Spec = breakpoint.Func{Levels: 4, Fn: p.cutAfter}
	return p
}

func (p *Population) cutAfter(t model.TxnID, prefix []model.Step) int {
	last := prefix[len(prefix)-1].Label
	switch prog := p.inflight[t].(type) {
	case *Transfer:
		if last == "withdraw" && prog.WithdrawDone(prefix) {
			return 2
		}
	case *Session:
		if last == "xfer-end" {
			return 2
		}
	default:
		return 4
	}
	return 3
}

// Transfer builds transfer id of family f over drawn accounts. Its class is
// its family's, among the customers.
func (p *Population) Transfer(id model.TxnID, f int, sources []model.EntityID, targets [2]model.EntityID) (*Transfer, []string) {
	return &Transfer{Txn: id, Family: f, Sources: sources, Targets: targets, Amount: p.amount, Reserve: p.reserve}, p.famPath[f]
}

// drawnTransfer is a Transfer with room for its sources beside it, so that
// DrawTransfer allocates once without every Transfer carrying the room.
type drawnTransfer struct {
	Transfer
	src [3]model.EntityID
}

// DrawTransfer builds transfer id of family f over accounts drawn from rng
// as World.DrawTransfer draws them, in one allocation: the sources sit in
// the same object as the transfer.
func (p *Population) DrawTransfer(rng *rand.Rand, id model.TxnID, f, crossPct int) (*Transfer, []string) {
	d := &drawnTransfer{Transfer: Transfer{Txn: id, Family: f, Amount: p.amount, Reserve: p.reserve}}
	d.Sources, d.Targets = p.World.DrawTransfer(rng, p.Accounts, f, crossPct, d.src[:0])
	return &d.Transfer, p.famPath[f]
}

// Session builds session id of family f running transfers in order. The
// caller draws each transfer's Sources and Targets; Session fills in the
// rest. Its class is its family's, as for a single transfer.
func (p *Population) Session(id model.TxnID, f int, transfers []Transfer) (*Session, []string) {
	for i := range transfers {
		tr := &transfers[i]
		tr.Txn, tr.Family, tr.Amount, tr.Reserve = id, f, p.amount, p.reserve
	}
	return &Session{Txn: id, Family: f, Transfers: transfers}, p.famPath[f]
}

// Audit builds bank audit id over every account. Its class is its own from
// level 2 down: it is atomic with respect to everything else.
func (p *Population) Audit(id model.TxnID) (*Audit, []string) {
	a := &Audit{Txn: id, Accounts: p.Accounts, Result: model.EntityID("auditres/" + string(id))}
	if !p.classes {
		return a, nil
	}
	class := "audit/" + string(id)
	return a, []string{class, class}
}

// Credit builds creditor audit id over family f's accounts. It sits with the
// customers at level 2, in a class of its own below.
func (p *Population) Credit(id model.TxnID, f int) (*Audit, []string) {
	per := p.World.AccountsPerFamily
	a := &Audit{Txn: id, Accounts: p.Accounts[f*per : (f+1)*per : (f+1)*per], Result: model.EntityID("credres/" + string(id))}
	if !p.classes {
		return a, nil
	}
	return a, []string{classCust, "cred/" + string(id)}
}

// Prepare registers a built program before its first step: a transfer or
// session enters the in-flight table Spec reads, and the class path enters
// the nest.
func (p *Population) Prepare(prog model.Program, path []string) {
	switch prog.(type) {
	case *Transfer, *Session:
		p.inflight[prog.ID()] = prog
	}
	if p.Nest != nil {
		p.Nest.Add(prog.ID(), path...)
	}
}

// Cleanup forgets a retired program. Its nest entry stays: a recorded
// history and a closure control still refer to the committed transaction's
// class.
func (p *Population) Cleanup(id model.TxnID) { delete(p.inflight, id) }
