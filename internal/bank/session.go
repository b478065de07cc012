package bank

import (
	"fmt"
	"math/rand"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// Session is the paper's motivating "very long transaction" (Section 1): a
// single logical unit — one customer's banking session — performing many
// transfers in sequence, remembering its earlier processing, while exposing
// much smaller units of atomicity. The boundary after each completed
// transfer is a class-wide (coarseness-2) breakpoint: other customers *and
// the bank audit* may interleave there, where no money is in transit.
// Boundaries inside a transfer are family-level (coarseness 3).
//
// Under serializability the whole session is one atomic unit — locks or
// dependencies span all its transfers, and concurrency collapses as
// sessions grow. Under multilevel atomicity the session's length is
// irrelevant to everyone except its own family. Experiment E12 measures
// exactly this.
type Session struct {
	Txn       model.TxnID
	Family    int
	Transfers []Transfer // parameter blocks, executed in order
}

// ID implements model.Program.
func (s *Session) ID() model.TxnID { return s.Txn }

// Init implements model.Program.
func (s *Session) Init() model.ProgState {
	return sessionState{s: s, inner: s.Transfers[0].Init()}
}

type sessionState struct {
	s     *Session
	idx   int // current transfer
	inner model.ProgState
}

func (st sessionState) Next() (model.EntityID, bool) {
	if x, ok := st.inner.Next(); ok {
		return x, true
	}
	// Current transfer finished; more to come?
	if st.idx+1 < len(st.s.Transfers) {
		ns := st.advance()
		return ns.Next()
	}
	return "", false
}

func (st sessionState) advance() sessionState {
	return sessionState{s: st.s, idx: st.idx + 1, inner: st.s.Transfers[st.idx+1].Init()}
}

func (st sessionState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	if _, ok := st.inner.Next(); !ok {
		// The exposed Next() already advanced past a finished transfer;
		// keep Apply consistent by advancing here too.
		return st.advance().Apply(v)
	}
	w, label, ni := st.inner.Apply(v)
	ns := sessionState{s: st.s, idx: st.idx, inner: ni}
	if _, more := ni.Next(); !more {
		// Last step of the current transfer: mark the step so the
		// breakpoint specification can place the class-wide boundary.
		label = "xfer-end"
		if st.idx+1 < len(st.s.Transfers) {
			ns = ns.advance()
		}
	}
	return w, label, ns
}

// SessionParams configures a sessioned banking workload.
type SessionParams struct {
	Families          int
	AccountsPerFamily int
	InitialBalance    model.Value

	Sessions      int // concurrent customer sessions
	SessionLength int // transfers per session
	BankAudits    int

	// CrossFamilyPct is the percentage of transfers whose deposit targets
	// lie in another family ("transfers of money from the accounts of one
	// family to the accounts of another family are also fairly common").
	CrossFamilyPct int

	Amount  model.Value
	Reserve model.Value
	Seed    int64
}

// DefaultSessionParams returns a medium configuration.
func DefaultSessionParams() SessionParams {
	return SessionParams{
		Families:          3,
		AccountsPerFamily: 4,
		InitialBalance:    1000,
		Sessions:          8,
		SessionLength:     4,
		BankAudits:        1,
		CrossFamilyPct:    30,
		Amount:            100,
		Reserve:           125,
		Seed:              1,
	}
}

// SessionWorkload bundles a sessioned run. The 4-nest differs from the
// plain banking workload: audits share the level-2 class with the customers
// (they may interleave at session transfer boundaries, where totals are
// consistent) instead of being isolated at level 1.
type SessionWorkload struct {
	World    World
	Params   SessionParams
	Programs []model.Program
	Nest     *nest.Nest
	Spec     breakpoint.Spec
	Init     map[model.EntityID]model.Value

	audits []*Audit
}

// GenerateSessions builds a deterministic sessioned workload.
func GenerateSessions(p SessionParams) *SessionWorkload {
	rng := rand.New(rand.NewSource(p.Seed))
	w := World{Families: p.Families, AccountsPerFamily: p.AccountsPerFamily, InitialBalance: p.InitialBalance}
	pop := NewPopulation(w, p.Amount, p.Reserve, nest.New(4), true)
	wl := &SessionWorkload{World: w, Params: p, Init: w.Init(), Nest: pop.Nest, Spec: pop.Spec}
	add := func(prog model.Program, path []string) {
		pop.Prepare(prog, path)
		wl.Programs = append(wl.Programs, prog)
	}
	for i := 0; i < p.Sessions; i++ {
		f := rng.Intn(p.Families)
		transfers := make([]Transfer, p.SessionLength)
		for j := range transfers {
			// Sources within the family; targets anywhere.
			tr := &transfers[j]
			for _, ai := range rng.Perm(p.AccountsPerFamily)[:min(3, p.AccountsPerFamily)] {
				tr.Sources = append(tr.Sources, w.Account(f, ai))
			}
			tf := f
			if p.Families > 1 && rng.Intn(100) < p.CrossFamilyPct {
				for tf == f {
					tf = rng.Intn(p.Families)
				}
			}
			tr.Targets = [2]model.EntityID{
				w.Account(tf, rng.Intn(p.AccountsPerFamily)),
				w.Account(tf, rng.Intn(p.AccountsPerFamily)),
			}
		}
		add(pop.Session(model.TxnID(fmt.Sprintf("sess-%03d", i)), f, transfers))
	}
	for i := 0; i < p.BankAudits; i++ {
		a, path := pop.Audit(model.TxnID(fmt.Sprintf("audit-%03d", i)))
		wl.audits = append(wl.audits, a)
		wl.Init[a.Result] = 0
		// Audits live beside the customers at level 2: they may interleave
		// at session transfer boundaries (consistent totals) but never
		// inside a transfer.
		add(a, []string{classCust, path[1]})
	}
	rng.Shuffle(len(wl.Programs), func(i, j int) { wl.Programs[i], wl.Programs[j] = wl.Programs[j], wl.Programs[i] })
	return wl
}

// Check evaluates the sessioned invariants: conservation, audit exactness
// (audits interleave only where no money is in transit), and value-chain
// validity.
func (wl *SessionWorkload) Check(exec model.Execution, final map[model.EntityID]model.Value) Invariants {
	return check(wl.World, wl.Init, wl.audits, exec, final)
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
