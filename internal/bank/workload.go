package bank

import (
	"fmt"
	"math/rand"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// Params configures a generated banking workload.
type Params struct {
	Families          int
	AccountsPerFamily int
	InitialBalance    model.Value

	Transfers      int
	BankAudits     int
	CreditorAudits int

	Amount  model.Value // transfer goal (the paper's $100)
	Reserve model.Value // first-deposit top-up level (the paper's $125)

	// CrossFamilyPct is the percentage (0..100) of transfers whose deposit
	// targets lie in a different family — the paper notes inter-family
	// transfers are "fairly common".
	CrossFamilyPct int

	Seed int64
}

// DefaultParams returns a moderately contended configuration.
func DefaultParams() Params {
	return Params{
		Families:          4,
		AccountsPerFamily: 4,
		InitialBalance:    1000,
		Transfers:         24,
		BankAudits:        2,
		CreditorAudits:    4,
		Amount:            100,
		Reserve:           125,
		CrossFamilyPct:    50,
		Seed:              1,
	}
}

// Workload bundles everything a run needs: the programs, the multilevel
// atomicity specification (nest + breakpoints) from Section 4.2's banking
// example, and the initial store.
type Workload struct {
	World    World
	Params   Params
	Programs []model.Program
	Nest     *nest.Nest
	Spec     breakpoint.Spec
	Init     map[model.EntityID]model.Value

	transfers map[model.TxnID]*Transfer
	audits    map[model.TxnID]*Audit // bank audits
	creditors map[model.TxnID]*Audit // creditor (family) audits
}

// Generate builds a deterministic banking workload from the parameters.
func Generate(p Params) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	w := World{Families: p.Families, AccountsPerFamily: p.AccountsPerFamily, InitialBalance: p.InitialBalance}
	wl := &Workload{
		World:     w,
		Params:    p,
		Init:      w.Init(),
		transfers: make(map[model.TxnID]*Transfer),
		audits:    make(map[model.TxnID]*Audit),
		creditors: make(map[model.TxnID]*Audit),
	}

	n := nest.New(4)
	var programs []model.Program
	accounts := w.Accounts()

	for i := 0; i < p.Transfers; i++ {
		f := rng.Intn(p.Families)
		id := model.TxnID(fmt.Sprintf("xfer-%03d", i))
		sources, targets := w.DrawTransfer(rng, accounts, f, p.CrossFamilyPct)
		tr := &Transfer{Txn: id, Family: f, Sources: sources, Targets: targets, Amount: p.Amount, Reserve: p.Reserve}
		wl.transfers[id] = tr
		programs = append(programs, tr)
		n.Add(id, "cust", fmt.Sprintf("fam-%02d", f))
	}

	for i := 0; i < p.BankAudits; i++ {
		id := model.TxnID(fmt.Sprintf("audit-%03d", i))
		a := &Audit{Txn: id, Accounts: w.Accounts(), Result: model.EntityID("auditres/" + string(id))}
		wl.audits[id] = a
		wl.Init[a.Result] = 0
		programs = append(programs, a)
		n.Add(id, "audit/"+string(id), "audit/"+string(id))
	}

	for i := 0; i < p.CreditorAudits; i++ {
		f := rng.Intn(p.Families)
		id := model.TxnID(fmt.Sprintf("cred-%03d", i))
		a := &Audit{Txn: id, Accounts: w.FamilyAccounts(f), Result: model.EntityID("credres/" + string(id))}
		wl.creditors[id] = a
		wl.Init[a.Result] = 0
		programs = append(programs, a)
		n.Add(id, "cust", "cred/"+string(id))
	}

	// Shuffle arrival order so audits are interspersed among transfers.
	rng.Shuffle(len(programs), func(i, j int) { programs[i], programs[j] = programs[j], programs[i] })
	wl.Programs = programs
	wl.Nest = n
	wl.Spec = breakpoint.Func{Levels: 4, Fn: wl.cutAfter}
	return wl
}

// cutAfter implements the banking breakpoint description of Section 4.2:
// for transfers, the boundary after the withdrawal phase completes has
// coarseness 2 (customers and creditors may interleave there, bank audits
// may not) and every other interior boundary has coarseness 3 (only family
// members interleave). Audits and creditor audits have no interior
// breakpoints below the singleton level.
func (wl *Workload) cutAfter(t model.TxnID, prefix []model.Step) int {
	if tr, ok := wl.transfers[t]; ok {
		last := prefix[len(prefix)-1]
		if last.Label == "withdraw" && tr.WithdrawDone(prefix) {
			return 2
		}
		return 3
	}
	return 4
}

// SerializabilitySpec returns the k=2 spec over the same transactions, for
// baseline comparisons on identical workloads.
func (wl *Workload) SerializabilitySpec() (*nest.Nest, breakpoint.Spec) {
	n := nest.New(2)
	for _, p := range wl.Programs {
		n.Add(p.ID())
	}
	return n, breakpoint.Uniform{Levels: 2, C: 2}
}

// Invariants summarizes the correctness checks of a finished run.
type Invariants struct {
	ConservationOK   bool // account total equals the initial supply
	AuditsExact      int  // bank audits whose recorded total is exact
	AuditsInexact    int
	CreditorsExact   int // creditor audits matching their family's final... see doc
	CreditorsChecked int
	TraceValid       error       // value-chain validation of the surviving execution
	Expected         model.Value // the conserved total
}

// Check evaluates the banking invariants against a run's result:
//
//   - conservation: transfers move money but never create or destroy it, so
//     the final account total must equal the initial supply;
//   - audit exactness: a bank audit is atomic with respect to every other
//     transaction under the Section 4.2 nest, so the total it records must
//     be exactly the conserved supply. A control that admits non-MLA
//     interleavings (e.g. None) records in-transit money instead.
//   - trace validity: the surviving execution's values chain per entity.
//
// Creditor audits record one family's total; since transfers legitimately
// interleave with them at phase boundaries (level-2 breakpoints), their
// recorded totals are reported but not required to match anything.
func (wl *Workload) Check(exec model.Execution, final map[model.EntityID]model.Value) Invariants {
	inv := Invariants{Expected: wl.World.Total()}
	var total model.Value
	for _, x := range wl.World.Accounts() {
		total += final[x]
	}
	inv.ConservationOK = total == inv.Expected
	for _, a := range wl.audits {
		if final[a.Result] == inv.Expected {
			inv.AuditsExact++
		} else {
			inv.AuditsInexact++
		}
	}
	inv.CreditorsChecked = len(wl.creditors)
	inv.TraceValid = exec.Validate(wl.Init)
	return inv
}

// Transfer returns the transfer program registered under id, if any.
func (wl *Workload) Transfer(id model.TxnID) (*Transfer, bool) {
	t, ok := wl.transfers[id]
	return t, ok
}

// BankAuditIDs returns the bank audit transaction IDs, sorted by ID.
func (wl *Workload) BankAuditIDs() []model.TxnID {
	var out []model.TxnID
	for id := range wl.audits {
		out = append(out, id)
	}
	model.SortTxnIDs(out)
	return out
}
