package main

import (
	"context"
	"fmt"
	"strconv"

	"mla/internal/engine"
	"mla/internal/model"
	"mla/internal/sched"
)

// engine_uniform: a resident engine.Session over the sharded 2PL control
// and a volatile store, fed pooled 2-step increment transactions that
// stride 4,096 entities. No I/O, (almost) no conflicts: the engine / sched
// / lock / model hot path and nothing else. It is the bypass workload — a
// WAL, HTTP or closure-gate change must show nothing here.

// incProg is a caller-owned, reused increment program: stepping it
// allocates nothing, so allocs_per_txn is the engine's own.
type incProg struct {
	id   model.TxnID
	ents []model.EntityID
	buf  []byte
	st   incState
}

func (p *incProg) ID() model.TxnID { return p.id }

func (p *incProg) Init() model.ProgState {
	p.st = incState{ents: p.ents}
	return &p.st
}

type incState struct {
	ents []model.EntityID
	idx  int
}

func (s *incState) Next() (model.EntityID, bool) {
	if s.idx < len(s.ents) {
		return s.ents[s.idx], true
	}
	return "", false
}

func (s *incState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	s.idx++
	return v + 1, "inc", s
}

type uniformWorld struct {
	ents  []model.EntityID
	order []uint16
	store engine.Store // undecorated, for the output check
	sess  *engine.Session
	ctl   sched.Control // undecorated, for Stats()

	callers []uniformCaller
}

// uniformCaller is one caller's private state: its program and its tally
// of committed increments per slot (the schedule-independent expectation).
type uniformCaller struct {
	prog  incProg
	slots []int64
	_     [64]byte
}

// uniformWarmupPasses is how many times set-up walks every slot before the
// world counts as ready.
const uniformWarmupPasses = 4

// setupUniform builds the world and runs the warm-up transactions, so
// interner tables, lock maps and pools have reached their steady size
// before anything is timed — and so that work a later change moves into
// set-up shows in setup_s. With tr non-nil the control and store are
// decorated.
func setupUniform(seed int64, callers int, tr *tracer) (*uniformWorld, error) {
	w := &uniformWorld{order: uniformOrder(seed), callers: make([]uniformCaller, callers)}
	init := make(map[model.EntityID]model.Value, uniformEntities)
	w.ents = make([]model.EntityID, uniformEntities)
	for e := range w.ents {
		w.ents[e] = model.EntityID(fmt.Sprintf("x%04d", e))
		init[w.ents[e]] = 0
	}
	for c := range w.callers {
		w.callers[c].slots = make([]int64, uniformSlots)
	}
	w.store = engine.NewVolatileStore(init)
	w.ctl = sched.NewShardedTwoPhase(16)
	store, ctl := w.store, w.ctl
	if tr != nil {
		var err error
		if ctl, err = wrapControl(w.ctl, tr, txnIndex); err != nil {
			return nil, err
		}
		if store, err = wrapStore(w.store, tr, txnIndex); err != nil {
			return nil, err
		}
	}
	w.sess = engine.NewSession(engine.Config{Seed: 1}, ctl, nil, store)
	for s := 0; s < uniformWarmupPasses*uniformSlots; s++ {
		// Warm-up IDs decode to index 0 ("not ours"): they leave no spans.
		if status := w.submitSlot(0, model.TxnID("warm-"+strconv.Itoa(s)), s%uniformSlots); status != "" {
			w.sess.Close()
			return nil, fmt.Errorf("engine_uniform: warm-up transaction %d: %s", s, status)
		}
	}
	return w, nil
}

func (w *uniformWorld) submitSlot(caller int, id model.TxnID, slot int) string {
	c := &w.callers[caller]
	c.prog.id = id
	c.prog.ents = w.ents[2*slot : 2*slot+2]
	out, err := w.sess.Submit(context.Background(), &c.prog, engine.SubmitOpts{})
	if status := outcomeStatus(out, err); status != "" {
		return status
	}
	c.slots[slot]++
	return ""
}

func (w *uniformWorld) submit(caller int, i int64) (string, engine.Outcome) {
	c := &w.callers[caller]
	slot := int(w.order[int(i-1)%len(w.order)])
	c.prog.buf, c.prog.id = txnID(c.prog.buf, 'u', i)
	c.prog.ents = w.ents[2*slot : 2*slot+2]
	out, err := w.sess.Submit(context.Background(), &c.prog, engine.SubmitOpts{})
	status := outcomeStatus(out, err)
	if status == "" {
		c.slots[slot]++
	}
	return status, out
}

// finish drains the session and checks commutative-increment equivalence:
// increments commute, so whatever schedule the engine chose, every entity
// must hold exactly the number of committed increments aimed at it.
func (w *uniformWorld) finish() checkResult {
	ck := checkResult{Name: "increment_equivalence"}
	if err := w.sess.Drain(context.Background()); err != nil {
		ck.Detail = "drain: " + err.Error()
		w.sess.Close()
		return ck
	}
	final := w.store.Values()
	if err := w.sess.Close(); err != nil {
		ck.Detail = "close: " + err.Error()
		return ck
	}
	for s := 0; s < uniformSlots; s++ {
		var want int64
		for c := range w.callers {
			want += w.callers[c].slots[s]
		}
		for _, x := range w.ents[2*s : 2*s+2] {
			if got := int64(final[x]); got != want {
				ck.Detail = fmt.Sprintf("entity %s holds %d, committed increments say %d", x, got, want)
				return ck
			}
		}
	}
	ck.OK = true
	return ck
}
