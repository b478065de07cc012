package main

import (
	"context"
	"fmt"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/engine"
	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
)

// The paper's Section 4.2 banking example on the in-process engine, under
// two controls fed the same request list:
//
//   - bank_2pl: sharded strict 2PL, one resident session — long readers
//     (bank audits over all 64 accounts) against short writers produce
//     waits, wounds and restarts in engine/sched/lock. The serializable
//     baseline of the paper's closing question.
//   - bank_mla: sched.Preventer with the Section 4.2 nest and breakpoints,
//     one fresh session per 110-transaction epoch — coherent.Online does
//     nearly all the work.

// checkedAudit is bank.Audit with its output captured: the total the audit
// records is the program's user-visible answer, and the benchmark checks
// every one. A restarted audit re-runs Init; the last attempt — the one
// that commits — overwrites the capture.
type checkedAudit struct {
	bank.Audit
	recorded model.Value
}

func (a *checkedAudit) Init() model.ProgState {
	return checkedState{a: a, inner: a.Audit.Init()}
}

type checkedState struct {
	a     *checkedAudit
	inner model.ProgState
}

func (s checkedState) Next() (model.EntityID, bool) { return s.inner.Next() }

func (s checkedState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	w, label, next := s.inner.Apply(v)
	if label == "record" {
		s.a.recorded = w
	}
	return w, label, checkedState{a: s.a, inner: next}
}

// bankWorld is one engine session over the 16 × 4 account world.
type bankWorld struct {
	list  bankList
	world bank.World
	fam   [][]model.EntityID // accounts per family
	all   []model.EntityID
	paths [bankFamilies][]string // nest path of a family's customers

	store engine.Store // undecorated
	ctl   sched.Control
	sess  *engine.Session
	rec   *history.Recorder

	// transfers and nest are touched only inside SubmitOpts.Prepare/Cleanup
	// and breakpoint.Spec.CutAfter — all under the engine mutex, the same
	// discipline internal/serve uses for an open population.
	transfers map[model.TxnID]*bank.Transfer
	nest      *nest.Nest // nil unless a control or recorder needs classes

	callers []bankCaller
}

type bankCaller struct {
	buf         []byte
	audits      int
	inexact     int
	firstDetail string
	_           [64]byte
}

// bankOptions selects the control and whether the history is recorded.
type bankOptions struct {
	mla    bool // sched.Preventer instead of sharded 2PL
	record bool // attach a history.Recorder
}

func newBankWorld(list bankList, callers int, o bankOptions, tr *tracer) (*bankWorld, error) {
	b := &bankWorld{
		list:      list,
		world:     bank.World{Families: bankFamilies, AccountsPerFamily: bankAccountsPerFam, InitialBalance: 1000},
		transfers: make(map[model.TxnID]*bank.Transfer),
		callers:   make([]bankCaller, callers),
	}
	b.all = b.world.Accounts()
	for f := 0; f < bankFamilies; f++ {
		b.fam = append(b.fam, b.world.FamilyAccounts(f))
		b.paths[f] = []string{"cust", fmt.Sprintf("fam-%02d", f)}
	}
	spec := breakpoint.Func{Levels: 4, Fn: b.cutAfter}
	if o.mla || o.record {
		b.nest = nest.New(4)
	}
	if o.mla {
		b.ctl = sched.NewPreventer(b.nest, spec)
	} else {
		b.ctl = sched.NewShardedTwoPhase(16)
	}
	b.store = engine.NewVolatileStore(b.world.Init())
	cfg := engine.Config{Seed: 1} // MaxRestarts 0: unlimited
	if o.record {
		b.rec = history.NewRecorder(b.nest)
		cfg.Observer = b.rec
	}
	store, ctl := b.store, b.ctl
	if tr != nil {
		var err error
		if ctl, err = wrapControl(b.ctl, tr, txnIndex); err != nil {
			return nil, err
		}
		if store, err = wrapStore(b.store, tr, txnIndex); err != nil {
			return nil, err
		}
	}
	b.sess = engine.NewSession(cfg, ctl, spec, store)
	return b, nil
}

// cutAfter is the Section 4.2 breakpoint description: a transfer's only
// level-2 breakpoint separates withdrawals from deposits, its other
// interior boundaries are level 3; audits have none below level 4.
func (b *bankWorld) cutAfter(t model.TxnID, prefix []model.Step) int {
	if tr, ok := b.transfers[t]; ok {
		if last := prefix[len(prefix)-1]; last.Label == "withdraw" && tr.WithdrawDone(prefix) {
			return 2
		}
		return 3
	}
	return 4
}

var kindPrefix = [...]byte{kindTransfer: 'x', kindCredit: 'c', kindAudit: 'a'}

// submit builds request i's program from the generated request and runs it.
func (b *bankWorld) submit(caller int, i int64) (string, engine.Outcome) {
	c := &b.callers[caller]
	req := b.list.at(int(i - 1))
	var id model.TxnID
	c.buf, id = txnID(c.buf, kindPrefix[req.Kind], i)

	var (
		prog  model.Program
		tr    *bank.Transfer
		audit *checkedAudit
		path  []string
	)
	switch req.Kind {
	case kindTransfer:
		src := b.fam[req.Family]
		dst := b.fam[req.TFam]
		tr = &bank.Transfer{
			Txn: id, Family: int(req.Family),
			Sources: []model.EntityID{src[req.Src[0]], src[req.Src[1]], src[req.Src[2]]},
			Targets: [2]model.EntityID{dst[req.Tgt[0]], dst[req.Tgt[1]]},
			Amount:  100, Reserve: 125,
		}
		prog, path = tr, b.paths[req.Family]
	case kindCredit:
		prog = &bank.Audit{Txn: id, Accounts: b.fam[req.Family], Result: model.EntityID("credres/" + string(id))}
		path = []string{"cust", "cred/" + string(id)}
	default:
		audit = &checkedAudit{Audit: bank.Audit{Txn: id, Accounts: b.all, Result: model.EntityID("auditres/" + string(id))}}
		prog = audit
		path = []string{"audit/" + string(id), "audit/" + string(id)}
	}

	out, err := b.sess.Submit(context.Background(), prog, engine.SubmitOpts{
		Prepare: func() {
			if tr != nil {
				b.transfers[id] = tr
			}
			if b.nest != nil {
				b.nest.Add(id, path...)
			}
		},
		// The nest entry stays: a recorded history and the Preventer's
		// closure both still refer to the committed transaction's class.
		Cleanup: func() { delete(b.transfers, id) },
	})
	status := outcomeStatus(out, err)
	if status == "" && audit != nil {
		c.audits++
		if want := b.world.Total(); audit.recorded != want {
			c.inexact++
			if c.firstDetail == "" {
				c.firstDetail = fmt.Sprintf("%s recorded %d, the bank holds %d", id, audit.recorded, want)
			}
		}
	}
	return status, out
}

// finish drains and closes the session and checks the outputs: money is
// conserved, and every bank audit recorded exactly the conserved total.
func (b *bankWorld) finish() []checkResult {
	conserved := checkResult{Name: "money_conserved"}
	exact := checkResult{Name: "bank_audits_exact"}
	checks := func() []checkResult { return []checkResult{conserved, exact} }
	if err := b.sess.Drain(context.Background()); err != nil {
		conserved.Detail = "drain: " + err.Error()
		b.sess.Close()
		return checks()
	}
	final := b.store.Values()
	if err := b.sess.Close(); err != nil {
		conserved.Detail = "close: " + err.Error()
		return checks()
	}
	var total model.Value
	for _, x := range b.all {
		total += final[x]
	}
	conserved.OK = total == b.world.Total()
	if !conserved.OK {
		conserved.Detail = fmt.Sprintf("accounts hold %d, the bank started with %d", total, b.world.Total())
	}
	audits, inexact := 0, 0
	for c := range b.callers {
		audits += b.callers[c].audits
		inexact += b.callers[c].inexact
		if exact.Detail == "" {
			exact.Detail = b.callers[c].firstDetail
		}
	}
	exact.OK = inexact == 0
	if exact.OK {
		exact.Detail = fmt.Sprintf("%d audits", audits)
	}
	return checks()
}

// checkHistory runs the black-box checker over the recorded history.
func (b *bankWorld) checkHistory() (checkResult, *history.Report) {
	ck := checkResult{Name: "history_correctable"}
	rep, err := history.Check(b.rec.History())
	switch {
	case err != nil:
		ck.Detail = err.Error()
	case !rep.Correctable:
		ck.Detail = rep.Summary()
	default:
		ck.OK = true
		ck.Detail = fmt.Sprintf("%d steps, %d txns", rep.Steps, rep.Txns)
	}
	return ck, rep
}
