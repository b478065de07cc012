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

// Init implements model.Program. The session's own states live in one
// slab, as a transfer's do, sized for every step of every transfer; each
// transfer's slab is allocated when the session reaches it, so an attempt of
// L transfers allocates 1 + L times.
func (s *Session) Init() model.ProgState {
	n := 1
	for i := range s.Transfers {
		n += len(s.Transfers[i].Sources) + 2
	}
	slab := make([]sessionState, n)
	slab[0] = sessionState{s: s, slab: slab, inner: s.Transfers[0].Init()}
	return &slab[0]
}

type sessionState struct {
	s     *Session
	slab  []sessionState // the attempt's states; this one is slab[n]
	n     int            // steps taken
	idx   int            // current transfer
	inner model.ProgState
}

// Next is the current transfer's: Apply moves on to the next transfer as
// soon as one finishes, so only the last one ever ends the session.
func (st *sessionState) Next() (model.EntityID, bool) { return st.inner.Next() }

func (st *sessionState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	if _, ok := st.inner.Next(); !ok {
		return v, "", st
	}
	w, label, ni := st.inner.Apply(v)
	ns := &st.slab[st.n+1]
	*ns = sessionState{s: st.s, slab: st.slab, n: st.n + 1, idx: st.idx, inner: ni}
	if _, more := ni.Next(); !more {
		// Last step of the current transfer: mark the step so the
		// breakpoint specification can place the class-wide boundary.
		label = "xfer-end"
		if st.idx+1 < len(st.s.Transfers) {
			ns.idx++
			ns.inner = st.s.Transfers[ns.idx].Init()
		}
	}
	return w, label, ns
}

// SessionParams configures a sessioned banking workload. Its world is fixed:
// sessionFamilies families of sessionAccounts accounts holding 1000 each,
// the paper's $100 transfers over a $125 reserve, sessionCrossPct percent
// of the deposit targets in another family, and one bank audit.
type SessionParams struct {
	Sessions      int // concurrent customer sessions
	SessionLength int // transfers per session
	Seed          int64
}

const (
	sessionFamilies = 3
	sessionAccounts = 4 // per family
	// sessionCrossPct is the percentage of transfers whose deposit targets
	// lie in another family ("transfers of money from the accounts of one
	// family to the accounts of another family are also fairly common").
	sessionCrossPct = 30
)

// DefaultSessionParams returns a medium configuration.
func DefaultSessionParams() SessionParams {
	return SessionParams{Sessions: 8, SessionLength: 4, Seed: 1}
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
	w := World{Families: sessionFamilies, AccountsPerFamily: sessionAccounts, InitialBalance: 1000}
	pop := NewPopulation(w, paperAmount, paperReserve, nest.New(4), true)
	wl := &SessionWorkload{World: w, Params: p, Init: w.Init(), Nest: pop.Nest, Spec: pop.Spec}
	add := func(prog model.Program, path []string) {
		pop.Prepare(prog, path)
		wl.Programs = append(wl.Programs, prog)
	}
	for i := 0; i < p.Sessions; i++ {
		f := rng.Intn(sessionFamilies)
		transfers := make([]Transfer, p.SessionLength)
		for j := range transfers {
			// Sources within the family; targets anywhere.
			tr := &transfers[j]
			for _, ai := range rng.Perm(sessionAccounts)[:3] {
				tr.Sources = append(tr.Sources, w.Account(f, ai))
			}
			tf := f
			if rng.Intn(100) < sessionCrossPct {
				for tf == f {
					tf = rng.Intn(sessionFamilies)
				}
			}
			tr.Targets = [2]model.EntityID{
				w.Account(tf, rng.Intn(sessionAccounts)),
				w.Account(tf, rng.Intn(sessionAccounts)),
			}
		}
		add(pop.Session(model.TxnID(fmt.Sprintf("sess-%03d", i)), f, transfers))
	}
	// The bank audit lives beside the customers at level 2: it may
	// interleave at session transfer boundaries (consistent totals) but
	// never inside a transfer.
	a, path := pop.Audit("audit-000")
	wl.audits = append(wl.audits, a)
	wl.Init[a.Result] = 0
	add(a, []string{classCust, path[1]})
	rng.Shuffle(len(wl.Programs), func(i, j int) { wl.Programs[i], wl.Programs[j] = wl.Programs[j], wl.Programs[i] })
	return wl
}

// Check evaluates the sessioned invariants: conservation, audit exactness
// (audits interleave only where no money is in transit), and value-chain
// validity.
func (wl *SessionWorkload) Check(exec model.Execution, final map[model.EntityID]model.Value) Invariants {
	return check(wl.World, wl.Init, wl.audits, exec, final)
}
