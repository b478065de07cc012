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

	audits []*Audit // bank audits
}

// Generate builds a deterministic banking workload from the parameters.
func Generate(p Params) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	w := World{Families: p.Families, AccountsPerFamily: p.AccountsPerFamily, InitialBalance: p.InitialBalance}
	pop := NewPopulation(w, p.Amount, p.Reserve, nest.New(4), true)
	wl := &Workload{World: w, Params: p, Init: w.Init(), Nest: pop.Nest, Spec: pop.Spec}
	add := func(prog model.Program, path []string) {
		pop.Prepare(prog, path)
		wl.Programs = append(wl.Programs, prog)
	}

	for i := 0; i < p.Transfers; i++ {
		f := rng.Intn(p.Families)
		add(pop.DrawTransfer(rng, model.TxnID(fmt.Sprintf("xfer-%03d", i)), f, p.CrossFamilyPct))
	}
	for i := 0; i < p.BankAudits; i++ {
		a, path := pop.Audit(model.TxnID(fmt.Sprintf("audit-%03d", i)))
		wl.audits = append(wl.audits, a)
		wl.Init[a.Result] = 0
		add(a, path)
	}
	for i := 0; i < p.CreditorAudits; i++ {
		a, path := pop.Credit(model.TxnID(fmt.Sprintf("cred-%03d", i)), rng.Intn(p.Families))
		wl.Init[a.Result] = 0
		add(a, path)
	}

	// Shuffle arrival order so audits are interspersed among transfers.
	rng.Shuffle(len(wl.Programs), func(i, j int) { wl.Programs[i], wl.Programs[j] = wl.Programs[j], wl.Programs[i] })
	return wl
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
	ConservationOK bool        // account total equals the initial supply
	AuditsExact    int         // bank audits whose recorded total is exact
	AuditsInexact  int         // bank audits that recorded anything else
	TraceValid     error       // value-chain validation of the surviving execution
	Expected       model.Value // the conserved total
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
// recorded totals are not required to match anything.
func (wl *Workload) Check(exec model.Execution, final map[model.EntityID]model.Value) Invariants {
	return check(wl.World, wl.Init, wl.audits, exec, final)
}

// check evaluates conservation, the exactness of the given bank audits, and
// value-chain validity from init.
func check(w World, init map[model.EntityID]model.Value, audits []*Audit, exec model.Execution, final map[model.EntityID]model.Value) Invariants {
	inv := Invariants{Expected: w.Total()}
	var total model.Value
	for _, x := range w.Accounts() {
		total += final[x]
	}
	inv.ConservationOK = total == inv.Expected
	for _, a := range audits {
		if final[a.Result] == inv.Expected {
			inv.AuditsExact++
		} else {
			inv.AuditsInexact++
		}
	}
	inv.TraceValid = exec.Validate(init)
	return inv
}

// BankAuditIDs returns the bank audit transaction IDs, sorted by ID.
func (wl *Workload) BankAuditIDs() []model.TxnID {
	var out []model.TxnID
	for _, a := range wl.audits {
		out = append(out, a.Txn)
	}
	model.SortTxnIDs(out)
	return out
}
