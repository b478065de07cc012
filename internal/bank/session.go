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

	sessions map[model.TxnID]*Session
	audits   map[model.TxnID]*Audit
}

// GenerateSessions builds a deterministic sessioned workload.
func GenerateSessions(p SessionParams) *SessionWorkload {
	rng := rand.New(rand.NewSource(p.Seed))
	w := World{Families: p.Families, AccountsPerFamily: p.AccountsPerFamily, InitialBalance: p.InitialBalance}
	wl := &SessionWorkload{
		World:    w,
		Params:   p,
		Init:     w.Init(),
		sessions: make(map[model.TxnID]*Session),
		audits:   make(map[model.TxnID]*Audit),
	}
	n := nest.New(4)
	var programs []model.Program
	for i := 0; i < p.Sessions; i++ {
		f := rng.Intn(p.Families)
		id := model.TxnID(fmt.Sprintf("sess-%03d", i))
		s := &Session{Txn: id, Family: f}
		for j := 0; j < p.SessionLength; j++ {
			// Sources within the family; targets anywhere.
			srcIdx := rng.Perm(p.AccountsPerFamily)
			nsrc := 3
			if nsrc > p.AccountsPerFamily {
				nsrc = p.AccountsPerFamily
			}
			var sources []model.EntityID
			for _, ai := range srcIdx[:nsrc] {
				sources = append(sources, w.Account(f, ai))
			}
			tf := f
			if p.Families > 1 && rng.Intn(100) < p.CrossFamilyPct {
				for tf == f {
					tf = rng.Intn(p.Families)
				}
			}
			targets := [2]model.EntityID{
				w.Account(tf, rng.Intn(p.AccountsPerFamily)),
				w.Account(tf, rng.Intn(p.AccountsPerFamily)),
			}
			s.Transfers = append(s.Transfers, Transfer{
				Txn: id, Family: f, Sources: sources, Targets: targets,
				Amount: p.Amount, Reserve: p.Reserve,
			})
		}
		wl.sessions[id] = s
		programs = append(programs, s)
		n.Add(id, "cust", fmt.Sprintf("fam-%02d", f))
	}
	for i := 0; i < p.BankAudits; i++ {
		id := model.TxnID(fmt.Sprintf("audit-%03d", i))
		a := &Audit{Txn: id, Accounts: w.Accounts(), Result: model.EntityID("auditres/" + string(id))}
		wl.audits[id] = a
		wl.Init[a.Result] = 0
		programs = append(programs, a)
		// Audits live beside the customers at level 2: they may interleave
		// at session transfer boundaries (consistent totals) but never
		// inside a transfer.
		n.Add(id, "cust", "audit/"+string(id))
	}
	rng.Shuffle(len(programs), func(i, j int) { programs[i], programs[j] = programs[j], programs[i] })
	wl.Programs = programs
	wl.Nest = n
	wl.Spec = breakpoint.Func{Levels: 4, Fn: wl.cutAfter}
	return wl
}

// cutAfter: the boundary after a completed transfer ("xfer-end") is
// class-wide (2); every other interior boundary of a session is
// family-level (3); audits expose no interior breakpoints.
func (wl *SessionWorkload) cutAfter(t model.TxnID, prefix []model.Step) int {
	if _, ok := wl.sessions[t]; ok {
		if prefix[len(prefix)-1].Label == "xfer-end" {
			return 2
		}
		return 3
	}
	return 4
}

// Check evaluates the sessioned invariants: conservation, audit exactness
// (audits interleave only where no money is in transit), and value-chain
// validity.
func (wl *SessionWorkload) Check(exec model.Execution, final map[model.EntityID]model.Value) Invariants {
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
	inv.TraceValid = exec.Validate(wl.Init)
	return inv
}

// SessionIDs returns the session transaction IDs, sorted.
func (wl *SessionWorkload) SessionIDs() []model.TxnID {
	var out []model.TxnID
	for id := range wl.sessions {
		out = append(out, id)
	}
	model.SortTxnIDs(out)
	return out
}
