package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/dist"
	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
)

// mixedWorkload builds the mixed-level scenario of E20: one application at
// three very different atomicity levels sharing one k=3 nest.
//
//   - Chatty banking sessions ("sess-N", class "app"): several
//     withdraw/deposit rounds, with a class-wide (coarseness-2) breakpoint
//     at each round boundary — long logical units, small atomicity units.
//   - Read-mostly analytics ("ana-N", class "app"): scans with a
//     breakpoint after every step — the weakest useful level.
//   - Serializable audits ("audit-N", each in its own class): whole-run
//     scans with no interior breakpoints; level 1 against everything, so
//     they demand full mutual serializability.
type mixedWorkload struct {
	progs []model.Program
	n     *nest.Nest
	spec  breakpoint.Spec
	init  map[model.EntityID]model.Value
}

func newMixedWorkload(sessions, rounds, analytics, audits, accounts int, seed int64) *mixedWorkload {
	rng := rand.New(rand.NewSource(seed))
	acct := func(i int) model.EntityID { return model.EntityID(fmt.Sprintf("acct-%02d", i)) }

	w := &mixedWorkload{
		n:    nest.New(3),
		init: make(map[model.EntityID]model.Value, accounts),
	}
	for i := 0; i < accounts; i++ {
		w.init[acct(i)] = 100
	}
	for s := 0; s < sessions; s++ {
		id := model.TxnID(fmt.Sprintf("sess-%d", s))
		var ops []model.Op
		for r := 0; r < rounds; r++ {
			amt := model.Value(1 + rng.Intn(9))
			from, to := rng.Intn(accounts), rng.Intn(accounts)
			ops = append(ops, model.Add(acct(from), -amt), model.Add(acct(to), amt))
		}
		w.progs = append(w.progs, &model.Scripted{Txn: id, Ops: ops})
		w.n.Add(id, "app")
	}
	for a := 0; a < analytics; a++ {
		id := model.TxnID(fmt.Sprintf("ana-%d", a))
		var ops []model.Op
		for j := 0; j < 2+rng.Intn(3); j++ {
			ops = append(ops, model.Read(acct(rng.Intn(accounts))))
		}
		w.progs = append(w.progs, &model.Scripted{Txn: id, Ops: ops})
		w.n.Add(id, "app")
	}
	for a := 0; a < audits; a++ {
		id := model.TxnID(fmt.Sprintf("audit-%d", a))
		ops := make([]model.Op, accounts)
		for i := range ops {
			ops[i] = model.Read(acct(i))
		}
		w.progs = append(w.progs, &model.Scripted{Txn: id, Ops: ops})
		w.n.Add(id, fmt.Sprintf("audit-%d", a))
	}

	w.spec = breakpoint.Func{Levels: 3, Fn: func(t model.TxnID, prefix []model.Step) int {
		switch {
		case strings.HasPrefix(string(t), "sess-"):
			if len(prefix)%2 == 0 {
				return 2 // round boundary: the whole class may interleave here
			}
			return 3
		case strings.HasPrefix(string(t), "ana-"):
			return 2 // interruptible everywhere
		default:
			return 3 // audits: no interior breakpoints
		}
	}}
	return w
}

// E20MixedHistory drives the mixed-level workload through serial,
// serializable, multilevel, and distributed controls on the simulator plus
// the multilevel control on a resident engine session (with a live history
// recorder attached), and cross-checks every admitted execution twice: the
// white-box Theorem 2 analysis on the execution, and the black-box history
// checker on the recorded event log. A disagreement fails the experiment —
// that is the point: two independent implementations of multilevel
// atomicity must agree on every schedule the system actually produces.
func E20MixedHistory(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E20: mixed-level history checking (sessions + analytics + audits)",
		"control", "executor", "committed", "steps", "atomic", "correctable", "agree")
	sc := o.scale()
	sessions, rounds, analytics, audits, accounts := 4*sc, 3, 3*sc, 2, 8

	for _, control := range []string{"serial", "2pl", "prevent", "dist"} {
		w := newMixedWorkload(sessions, rounds, analytics, audits, accounts, o.Seed)
		var c sched.Control
		if control == "dist" {
			c = dist.NewNet(w.n, w.spec, dist.Params{
				Procs:  sim.Processors,
				Owner:  sim.OwnerFunc(sim.Processors),
				Delay:  5,
				Faults: fault.New(fault.Plan{Seed: o.Seed}),
			})
		} else {
			c = controlByName(control, w.n, w.spec)
		}
		res, err := runSim(o.ctx(), w.progs, c, w.spec, w.init)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", control, err)
		}
		rn := w.n.Restrict(res.Exec.Txns())
		h, err := history.FromExecution(res.Exec, rn, w.spec)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: history: %w", control, err)
		}
		if err := e20row(t, control, "sim", res.Exec, rn, w.spec, h); err != nil {
			return nil, err
		}
	}

	// The engine path records the history live, and the white-box analysis
	// judges the execution the recorder saw committed. The programs go in
	// one at a time: submitted concurrently, goroutine timing decided whether
	// the run came out serial, and with it the atomic cell. The row gives up
	// its concurrency to be a function of the seed, like the others.
	w := newMixedWorkload(sessions, rounds, analytics, audits, accounts, o.Seed)
	rec := history.NewRecorder(w.n)
	s := engine.NewSession(engine.Config{Seed: o.Seed, Observer: rec}, sched.NewPreventer(w.n, w.spec), w.spec, engine.NewVolatileStore(w.init))
	for _, p := range w.progs {
		if out, err := s.Submit(o.ctx(), p, engine.SubmitOpts{}); err != nil || !out.Committed {
			s.Close()
			return nil, fmt.Errorf("E20 engine: %s did not commit (%+v): %v", p.ID(), out, err)
		}
	}
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("E20 engine: %w", err)
	}
	h := rec.History()
	exec, _, err := h.Committed()
	if err != nil {
		return nil, fmt.Errorf("E20 engine: history: %w", err)
	}
	if err := e20row(t, "prevent", "engine", exec, w.n.Restrict(exec.Txns()), w.spec, h); err != nil {
		return nil, err
	}
	return t, nil
}

// e20row runs both checkers over one admitted execution and appends the
// comparison; it errors on checker disagreement or an inadmissible schedule.
func e20row(t *metrics.Table, control, executor string, exec model.Execution, n *nest.Nest, spec breakpoint.Spec, h *history.History) error {
	white, err := coherent.CheckExecution(exec, n, spec)
	if err != nil {
		return fmt.Errorf("E20 %s/%s: coherent: %w", control, executor, err)
	}
	black, err := history.Check(h)
	if err != nil {
		return fmt.Errorf("E20 %s/%s: history: %w", control, executor, err)
	}
	agree := white.Atomic == black.Atomic && white.Correctable == black.Correctable
	t.Row(control, executor, len(exec.Txns()), len(exec), black.Atomic, black.Correctable, agree)
	if !agree {
		return fmt.Errorf("E20 %s/%s: checker disagreement: history says atomic=%v correctable=%v, coherent says atomic=%v correctable=%v",
			control, executor, black.Atomic, black.Correctable, white.Atomic, white.Correctable)
	}
	if !white.Correctable {
		return fmt.Errorf("E20 %s/%s: control admitted a non-correctable execution", control, executor)
	}
	return nil
}
