package bank

import (
	"testing"
	"testing/quick"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
)

// runProgram executes a program serially against vals.
func runProgram(t *testing.T, p model.Program, vals map[model.EntityID]model.Value) model.Execution {
	t.Helper()
	e, err := model.RunSerial([]model.Program{p}, vals)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTransferPaperE1 reproduces the paper's execution e1 of t1 (Section
// 4.3): "Access A, see $20, leave $0. Access B, see $150, leave $70.
// Access D, see $20, leave $120." — the goal is met after two withdrawals
// and nothing remains after the first deposit, so C and E are never
// accessed.
func TestTransferPaperE1(t *testing.T) {
	tr := &Transfer{
		Txn: "t1", Sources: []model.EntityID{"A", "B", "C"},
		Targets: [2]model.EntityID{"D", "E"}, Amount: 100, Reserve: 125,
	}
	vals := map[model.EntityID]model.Value{"A": 20, "B": 150, "C": 500, "D": 20, "E": 0}
	e := runProgram(t, tr, vals)
	if len(e) != 3 {
		t.Fatalf("e1 has %d steps, want 3: %v", len(e), e)
	}
	if vals["A"] != 0 || vals["B"] != 70 || vals["D"] != 120 {
		t.Errorf("balances: A=%d B=%d D=%d", vals["A"], vals["B"], vals["D"])
	}
	if vals["C"] != 500 || vals["E"] != 0 {
		t.Error("C and E must not be touched")
	}
}

// TestTransferPaperE2 reproduces the paper's execution e2: "Access A, see
// $0, leave $0. Access B, see $15, leave $0. Access C, see $70, leave $0.
// Access D, see $110, leave $125. Access E, see $30, leave $100."
func TestTransferPaperE2(t *testing.T) {
	tr := &Transfer{
		Txn: "t1", Sources: []model.EntityID{"A", "B", "C"},
		Targets: [2]model.EntityID{"D", "E"}, Amount: 100, Reserve: 125,
	}
	vals := map[model.EntityID]model.Value{"A": 0, "B": 15, "C": 70, "D": 110, "E": 30}
	e := runProgram(t, tr, vals)
	if len(e) != 5 {
		t.Fatalf("e2 has %d steps, want 5: %v", len(e), e)
	}
	want := map[model.EntityID]model.Value{"A": 0, "B": 0, "C": 0, "D": 125, "E": 100}
	for x, v := range want {
		if vals[x] != v {
			t.Errorf("%s = %d, want %d", x, vals[x], v)
		}
	}
}

// TestTransferConserves: for arbitrary balances, a transfer never creates
// or destroys money across the entities it touches.
func TestQuickTransferConserves(t *testing.T) {
	prop := func(a, b, c, d, e uint16) bool {
		tr := &Transfer{
			Txn: "t", Sources: []model.EntityID{"A", "B", "C"},
			Targets: [2]model.EntityID{"D", "E"}, Amount: 100, Reserve: 125,
		}
		vals := map[model.EntityID]model.Value{
			"A": model.Value(a % 300), "B": model.Value(b % 300), "C": model.Value(c % 300),
			"D": model.Value(d % 300), "E": model.Value(e % 300),
		}
		var before model.Value
		for _, v := range vals {
			before += v
		}
		if _, err := model.RunSerial([]model.Program{tr}, vals); err != nil {
			return false
		}
		var after model.Value
		for _, v := range vals {
			after += v
		}
		return before == after
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferStopsEarly(t *testing.T) {
	tr := &Transfer{
		Txn: "t", Sources: []model.EntityID{"A", "B", "C"},
		Targets: [2]model.EntityID{"D", "E"}, Amount: 50, Reserve: 60,
	}
	vals := map[model.EntityID]model.Value{"A": 500, "D": 0, "E": 0}
	e := runProgram(t, tr, vals)
	// One withdrawal suffices; deposit 50 into D (< reserve 60), E skipped.
	if len(e) != 2 {
		t.Fatalf("%d steps: %v", len(e), e)
	}
	if vals["A"] != 450 || vals["D"] != 50 {
		t.Errorf("A=%d D=%d", vals["A"], vals["D"])
	}
}

func TestWithdrawDoneDetection(t *testing.T) {
	tr := &Transfer{
		Txn: "t", Sources: []model.EntityID{"A", "B", "C"},
		Targets: [2]model.EntityID{"D", "E"}, Amount: 100, Reserve: 125,
	}
	// Prefix with one withdrawal of 40: phase not done.
	p1 := []model.Step{{Txn: "t", Seq: 1, Entity: "A", Label: "withdraw", Before: 40, After: 0}}
	if tr.WithdrawDone(p1) {
		t.Error("40 < 100 with sources remaining: not done")
	}
	// Collected 100: done.
	p2 := append(p1, model.Step{Txn: "t", Seq: 2, Entity: "B", Label: "withdraw", Before: 80, After: 20})
	if !tr.WithdrawDone(p2) {
		t.Error("collected 100: done")
	}
	// All three sources scanned with less than the goal: done.
	p3 := []model.Step{
		{Txn: "t", Seq: 1, Entity: "A", Label: "withdraw", Before: 1, After: 0},
		{Txn: "t", Seq: 2, Entity: "B", Label: "withdraw", Before: 1, After: 0},
		{Txn: "t", Seq: 3, Entity: "C", Label: "withdraw", Before: 1, After: 0},
	}
	if !tr.WithdrawDone(p3) {
		t.Error("all sources scanned: done")
	}
}

func TestAuditRecordsTotal(t *testing.T) {
	a := &Audit{Txn: "a", Accounts: []model.EntityID{"A", "B"}, Result: "res"}
	vals := map[model.EntityID]model.Value{"A": 30, "B": 12, "res": 0}
	e := runProgram(t, a, vals)
	if len(e) != 3 {
		t.Fatalf("%d steps", len(e))
	}
	if vals["res"] != 42 {
		t.Errorf("res = %d", vals["res"])
	}
	if e[0].Label != "read" || e[2].Label != "record" {
		t.Errorf("labels: %v", e)
	}
	// Reads must not disturb balances.
	if vals["A"] != 30 || vals["B"] != 12 {
		t.Error("audit mutated balances")
	}
}

func TestAuditRestartResets(t *testing.T) {
	// A fresh Init must reset the accumulator (regression guard against
	// shared closure state surviving a rollback-restart).
	a := &Audit{Txn: "a", Accounts: []model.EntityID{"A"}, Result: "res"}
	vals := map[model.EntityID]model.Value{"A": 5, "res": 0}
	runProgram(t, a, vals)
	vals["res"] = 0
	runProgram(t, a, vals)
	if vals["res"] != 5 {
		t.Errorf("second run recorded %d, want 5 (accumulator leaked)", vals["res"])
	}
}

func TestWorldGeometry(t *testing.T) {
	w := World{Families: 3, AccountsPerFamily: 2, InitialBalance: 10}
	if len(w.Accounts()) != 6 {
		t.Errorf("accounts = %d", len(w.Accounts()))
	}
	if len(w.FamilyAccounts(1)) != 2 {
		t.Errorf("family accounts = %d", len(w.FamilyAccounts(1)))
	}
	if w.Total() != 60 {
		t.Errorf("total = %d", w.Total())
	}
	init := w.Init()
	if len(init) != 6 || init[w.Account(2, 1)] != 10 {
		t.Errorf("init = %v", init)
	}
	if w.Account(0, 0) == w.Account(0, 1) || w.Account(0, 0) == w.Account(1, 0) {
		t.Error("account IDs must be distinct")
	}
}

func TestGenerateWorkloadShape(t *testing.T) {
	p := DefaultParams()
	wl := Generate(p)
	if len(wl.Programs) != p.Transfers+p.BankAudits+p.CreditorAudits {
		t.Fatalf("programs = %d", len(wl.Programs))
	}
	if err := wl.Nest.Validate(); err != nil {
		t.Fatal(err)
	}
	if wl.Nest.K() != 4 || wl.Spec.K() != 4 {
		t.Error("banking uses a 4-nest")
	}
	// Transfers of a common family relate at level 3; audits at level 1.
	var xferIDs []model.TxnID
	for _, pr := range wl.Programs {
		if _, ok := pr.(*Transfer); ok {
			xferIDs = append(xferIDs, pr.ID())
		}
	}
	if len(xferIDs) != p.Transfers {
		t.Fatalf("transfers = %d", len(xferIDs))
	}
	aud := wl.BankAuditIDs()
	if len(aud) != p.BankAudits {
		t.Fatalf("audits = %v", aud)
	}
	for _, x := range xferIDs {
		if wl.Nest.Level(x, aud[0]) != 1 {
			t.Errorf("transfer %s vs audit: level %d, want 1", x, wl.Nest.Level(x, aud[0]))
		}
	}
	// Determinism.
	wl2 := Generate(p)
	for i := range wl.Programs {
		if wl.Programs[i].ID() != wl2.Programs[i].ID() {
			t.Fatal("generation not deterministic")
		}
	}
}

// TestWorkloadSerialBaseline: running the generated workload serially must
// conserve money, record exact audits, and be multilevel atomic.
func TestWorkloadSerialBaseline(t *testing.T) {
	p := DefaultParams()
	p.Transfers = 8
	p.BankAudits = 2
	p.CreditorAudits = 2
	wl := Generate(p)
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
		t.Error("serial run must conserve money")
	}
	if inv.AuditsInexact != 0 {
		t.Errorf("%d inexact audits in a serial run", inv.AuditsInexact)
	}
	if inv.TraceValid != nil {
		t.Errorf("trace: %v", inv.TraceValid)
	}
	ok, err := coherent.MultilevelAtomic(e, wl.Nest, wl.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("serial run must be multilevel atomic")
	}
}

func TestCutAfterPlacesPhaseBoundary(t *testing.T) {
	p := DefaultParams()
	wl := Generate(p)
	var tr *Transfer
	for _, pr := range wl.Programs {
		if x, ok := pr.(*Transfer); ok {
			tr = x
			break
		}
	}
	if tr == nil {
		t.Fatal("no transfer found")
	}
	// Simulate a prefix completing the withdrawal phase.
	prefix := []model.Step{{Txn: tr.Txn, Seq: 1, Entity: tr.Sources[0], Label: "withdraw",
		Before: tr.Amount + 50, After: 50}}
	if got := wl.Spec.CutAfter(tr.Txn, prefix); got != 2 {
		t.Errorf("phase boundary coarseness = %d, want 2", got)
	}
	// Mid-phase boundary is level 3.
	prefix[0].Before = 10
	prefix[0].After = 0
	if got := wl.Spec.CutAfter(tr.Txn, prefix); got != 3 {
		t.Errorf("mid-phase coarseness = %d, want 3", got)
	}
	// Audits have no interior breakpoints.
	aud := wl.BankAuditIDs()[0]
	ap := []model.Step{{Txn: aud, Seq: 1, Entity: "acct/f00/a00", Label: "read"}}
	if got := wl.Spec.CutAfter(aud, ap); got != 4 {
		t.Errorf("audit coarseness = %d, want 4", got)
	}
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

func TestSerializabilitySpecCovers(t *testing.T) {
	wl := Generate(DefaultParams())
	n2, s2 := wl.SerializabilitySpec()
	if n2.K() != 2 || s2.K() != 2 {
		t.Fatal("k=2 expected")
	}
	for _, p := range wl.Programs {
		if !n2.Has(p.ID()) {
			t.Fatalf("%s missing from k=2 nest", p.ID())
		}
	}
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
