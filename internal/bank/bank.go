// Package bank implements the paper's running example (Sections 2 and 4):
// the Big Bucks Bank, whose accounts are grouped into families and accessed
// by three kinds of transactions —
//
//   - transfers (the paper's t1): withdraw up to a goal amount from the
//     originating family's accounts, scanned sequentially, then deposit the
//     collected money into two target accounts ("a fuel-bill account and an
//     entertainment account"), topping the first up to a reserve level and
//     putting the remainder in the second;
//   - bank audits: read every account and record the grand total in a
//     dedicated result entity ("enter a calculated interest amount into a
//     special account");
//   - creditor audits: read one family's accounts and record that family's
//     total.
//
// The 4-nest and breakpoint structure follow Section 4.2's banking example:
// π(2) groups customer and creditor transactions together and isolates each
// bank audit; π(3) refines π(2) by family; a transfer's only level-2
// breakpoint separates its withdrawal phase from its deposit phase, while
// every other interior boundary is a level-3 breakpoint (family members
// interleave freely).
package bank

import (
	"fmt"
	"math/rand"
	"slices"

	"mla/internal/model"
)

// World describes the account universe.
type World struct {
	Families          int
	AccountsPerFamily int
	InitialBalance    model.Value
}

// Account returns the entity ID of account i of family f.
func (w World) Account(f, i int) model.EntityID {
	return model.EntityID(fmt.Sprintf("acct/f%02d/a%02d", f, i))
}

// Accounts returns all account entities, family-major.
func (w World) Accounts() []model.EntityID {
	out := make([]model.EntityID, 0, w.Families*w.AccountsPerFamily)
	for f := 0; f < w.Families; f++ {
		for i := 0; i < w.AccountsPerFamily; i++ {
			out = append(out, w.Account(f, i))
		}
	}
	return out
}

// FamilyAccounts returns family f's account entities.
func (w World) FamilyAccounts(f int) []model.EntityID {
	out := make([]model.EntityID, 0, w.AccountsPerFamily)
	for i := 0; i < w.AccountsPerFamily; i++ {
		out = append(out, w.Account(f, i))
	}
	return out
}

// DrawTransfer draws one transfer's accounts from rng: up to 3 distinct
// sources in family f, appended to sources, then two targets distinct from
// them (the paper deposits into "two arbitrary other accounts"), in another
// family with probability crossPct percent. accounts is w.Accounts(), passed
// in so that a resident caller builds the names once; a sources slice with
// room for three allocates nothing.
func (w World) DrawTransfer(rng *rand.Rand, accounts []model.EntityID, f, crossPct int, sources []model.EntityID) ([]model.EntityID, [2]model.EntityID) {
	per := w.AccountsPerFamily
	var buf [16]int
	perm := buf[:min(per, len(buf))]
	if per > len(buf) {
		perm = make([]int, per)
	}
	permInto(rng, perm)
	for i := range min(3, per) {
		sources = append(sources, accounts[f*per+perm[i]])
	}
	tf := f
	if w.Families > 1 && rng.Intn(100) < crossPct {
		for tf == f {
			tf = rng.Intn(w.Families)
		}
	}
	var targets [2]model.EntityID
	picked := 0
	permInto(rng, perm)
	for _, ai := range perm {
		if cand := accounts[tf*per+ai]; picked < 2 && !slices.Contains(sources, cand) {
			targets[picked] = cand
			picked++
		}
	}
	// Tiny families: fall back to any accounts of the target family, reusing
	// a source if need be (still a valid transaction).
	for ; picked < 2; picked++ {
		targets[picked] = accounts[tf*per+rng.Intn(per)]
	}
	return sources, targets
}

// permInto fills m as rng.Perm(len(m)) would, with the same draws.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Init returns the initial entity values: every account at InitialBalance.
func (w World) Init() map[model.EntityID]model.Value {
	init := make(map[model.EntityID]model.Value)
	for _, x := range w.Accounts() {
		init[x] = w.InitialBalance
	}
	return init
}

// Total returns the initial total money supply.
func (w World) Total() model.Value {
	return model.Value(w.Families*w.AccountsPerFamily) * w.InitialBalance
}

// Transfer is the paper's branching funds-transfer transaction t1
// (Section 4.3): it examines Sources sequentially, "attempting to obtain
// [Amount] as soon as possible"; accounts beyond the one that completes the
// goal are not accessed. It then deposits into Targets[0] up to the Reserve
// level and puts any remainder into Targets[1]; if nothing remains after
// the first deposit, the second account is not accessed.
type Transfer struct {
	Txn     model.TxnID
	Family  int // originating family (for the nest)
	Sources []model.EntityID
	Targets [2]model.EntityID
	Amount  model.Value
	Reserve model.Value

	room *drawnSlab // set by Population.DrawTransfer: every attempt's slab
}

// ID implements model.Program.
func (t *Transfer) ID() model.TxnID { return t.Txn }

// Init implements model.Program. The attempt's states live in one slab: a
// transfer takes at most len(Sources)+2 steps, the state after n steps is
// slab[n], and Apply writes its successor in place, so stepping boxes
// nothing. A drawn transfer's attempts all reuse the slab it carries; any
// other transfer allocates one here per attempt.
func (t *Transfer) Init() model.ProgState {
	var slab []xferState
	if n := len(t.Sources) + 3; t.room != nil && n <= len(t.room) {
		slab = t.room[:n]
	} else {
		slab = make([]xferState, n)
	}
	slab[0] = xferState{t: t, slab: slab}
	return &slab[0]
}

type xferState struct {
	t     *Transfer
	slab  []xferState // the attempt's states; this one is slab[n]
	n     int         // steps taken
	phase int         // 0 withdrawing, 1 first deposit, 2 second deposit, 3 done
	idx   int         // next source index
	got   model.Value
}

func (s *xferState) Next() (model.EntityID, bool) {
	switch s.phase {
	case 0:
		return s.t.Sources[s.idx], true
	case 1:
		return s.t.Targets[0], true
	case 2:
		return s.t.Targets[1], true
	}
	return "", false
}

func (s *xferState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	if s.phase == 3 {
		return v, "", s
	}
	ns := &s.slab[s.n+1]
	*ns = *s
	ns.n++
	switch s.phase {
	case 0:
		take := min(s.t.Amount-s.got, v)
		ns.got += take
		ns.idx++
		if ns.got >= s.t.Amount || ns.idx >= len(s.t.Sources) {
			ns.phase = 1 // withdrawal phase complete
		}
		return v - take, "withdraw", ns
	case 1:
		put := min(s.got, max(s.t.Reserve-v, 0))
		ns.got -= put
		if ns.got > 0 {
			ns.phase = 2
		} else {
			ns.phase = 3
		}
		return v + put, "deposit", ns
	}
	// Phase 2: the second deposit takes the rest.
	ns.got = 0
	ns.phase = 3
	return v + s.got, "deposit", ns
}

// WithdrawDone reports whether the prefix completes the withdrawal phase:
// the collected amount reached the goal or every source was scanned.
// Population's Spec uses it to place the phase boundary online.
func (t *Transfer) WithdrawDone(prefix []model.Step) bool {
	var got model.Value
	withdrawals := 0
	for _, s := range prefix {
		if s.Label == "withdraw" {
			withdrawals++
			got += s.Before - s.After
		}
	}
	return got >= t.Amount || withdrawals >= len(t.Sources)
}

// Audit is the bank audit: it reads every account and finally records the
// observed grand total in its Result entity. Under the banking nest an
// audit relates to everything else only at level 1, so it is atomic with
// respect to all other transactions — and therefore must observe exactly
// the conserved total.
type Audit struct {
	Txn      model.TxnID
	Accounts []model.EntityID
	Result   model.EntityID
}

// ID implements model.Program.
func (a *Audit) ID() model.TxnID { return a.Txn }

// Init implements model.Program. As for a transfer, the attempt's states
// live in one slab: an audit takes len(Accounts)+1 steps, and the state
// after n steps is slab[n].
func (a *Audit) Init() model.ProgState {
	slab := make([]auditState, len(a.Accounts)+2)
	slab[0] = auditState{a: a, slab: slab}
	return &slab[0]
}

type auditState struct {
	a    *Audit
	slab []auditState // the attempt's states; this one is slab[idx]
	idx  int
	sum  model.Value
}

func (s *auditState) Next() (model.EntityID, bool) {
	if s.idx < len(s.a.Accounts) {
		return s.a.Accounts[s.idx], true
	}
	if s.idx == len(s.a.Accounts) {
		return s.a.Result, true
	}
	return "", false
}

func (s *auditState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	if s.idx > len(s.a.Accounts) {
		return v, "", s
	}
	ns := &s.slab[s.idx+1]
	*ns = *s
	ns.idx++
	if s.idx < len(s.a.Accounts) {
		ns.sum += v
		return v, "read", ns
	}
	return ns.sum, "record", ns
}
