package bench

import (
	"fmt"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/serial"
)

// randomScripted builds nTxn scripted transactions of nSteps random
// accesses over nEnt entities.
func randomScripted(o Config, rng interface{ Intn(int) int }, nTxn, nSteps, nEnt int) []model.Program {
	progs := make([]model.Program, nTxn)
	for i := 0; i < nTxn; i++ {
		ops := make([]model.Op, nSteps)
		for j := range ops {
			x := model.EntityID(fmt.Sprintf("x%02d", rng.Intn(nEnt)))
			ops[j] = model.Add(x, model.Value(1+rng.Intn(5)))
		}
		progs[i] = &model.Scripted{Txn: model.TxnID(fmt.Sprintf("t%02d", i)), Ops: ops}
	}
	return progs
}

// E1Equivalence measures agreement of the k=2 Theorem 2 test with the
// classical serialization-graph test on random interleavings. The paper's
// Section 4.3 claims exact coincidence, so the "disagree" column must be 0.
func E1Equivalence(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E1: k=2 correctability vs conflict serializability",
		"txns", "steps", "entities", "trials", "serializable", "agree", "disagree")
	rng := o.rng()
	trials := 150 * o.scale()
	for _, cfg := range [][3]int{{3, 3, 4}, {4, 4, 4}, {5, 5, 6}, {4, 6, 3}} {
		nTxn, nSteps, nEnt := cfg[0], cfg[1], cfg[2]
		agree, disagree, serOK := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			progs := randomScripted(o, rng, nTxn, nSteps, nEnt)
			n := nest.New(2)
			for _, p := range progs {
				n.Add(p.ID())
			}
			e, err := model.RandomInterleave(progs, map[model.EntityID]model.Value{}, o.rng())
			if err != nil {
				return nil, err
			}
			// Reseed derived rng per trial for variety.
			for i := 0; i < trial%7; i++ {
				rng.Intn(2)
			}
			mla, err := coherent.Correctable(e, n, breakpoint.Uniform{Levels: 2, C: 2})
			if err != nil {
				return nil, err
			}
			ser := serial.Serializable(e)
			if ser {
				serOK++
			}
			if mla == ser {
				agree++
			} else {
				disagree++
			}
		}
		t.Row(nTxn, nSteps, nEnt, trials, serOK, agree, disagree)
	}
	return t, nil
}

// E2PaperExamples re-evaluates the paper's worked examples and reports
// expected versus computed for each.
func E2PaperExamples(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E2: the paper's worked examples",
		"example", "expected", "got", "ok")
	row := func(name, want, got string) {
		t.Row(name, want, got, want == got)
	}

	// --- Subsection 4.2: R1, R2, R3 over the abstract 3-level instance.
	n := nest.New(3)
	n.Add("t1", "g12")
	n.Add("t2", "g12")
	n.Add("t3", "g3")
	descs := make(map[model.TxnID]*breakpoint.Description)
	counts := make(map[model.TxnID]int)
	for _, id := range []model.TxnID{"t1", "t2", "t3"} {
		d := breakpoint.NewDescription(3, 4)
		d.SetCut(1, 3)
		d.SetCut(2, 2)
		d.SetCut(3, 3)
		descs[id] = d
		counts[id] = 4
	}
	inst, err := coherent.NewAbstract(n, counts, descs)
	if err != nil {
		return nil, err
	}
	gi := func(txn model.TxnID, seq int) int {
		g, _ := inst.Index(txn, seq)
		return g
	}
	r1 := [][2]int{{gi("t1", 2), gi("t2", 2)}, {gi("t2", 2), gi("t1", 3)}, {gi("t1", 4), gi("t3", 1)}, {gi("t2", 4), gi("t3", 3)}}
	r2 := [][2]int{{gi("t1", 1), gi("t2", 2)}, {gi("t2", 1), gi("t1", 3)}, {gi("t1", 1), gi("t3", 1)}, {gi("t2", 1), gi("t3", 3)}}
	r3 := [][2]int{{gi("t1", 1), gi("t2", 2)}, {gi("t2", 1), gi("t1", 3)}, {gi("t3", 1), gi("t1", 1)}, {gi("t2", 1), gi("t3", 3)}}
	relR1 := inst.Closure(r1)
	relR2 := inst.Closure(r2)
	relR3 := inst.Closure(r3)
	row("closure(R1) is a partial order", "true", fmt.Sprint(relR1.Acyclic()))
	row("closure(R2) is a partial order", "true", fmt.Sprint(relR2.Acyclic()))
	eq := relR1.Pairs() == relR2.Pairs()
	for a := 0; a < inst.N() && eq; a++ {
		for b := 0; b < inst.N(); b++ {
			if relR1.Has(a, b) != relR2.Has(a, b) {
				eq = false
				break
			}
		}
	}
	row("closure(R2) equals closure(R1)", "true", fmt.Sprint(eq))
	row("closure(R3) contains a cycle", "true", fmt.Sprint(!relR3.Acyclic()))

	// Lemma 1 on R1.
	perm, err := relR1.ExtendTotal()
	ok := err == nil && inst.IsCoherentTotalOrder(perm)
	row("Lemma 1 extension of R1 is a coherent total order", "true", fmt.Sprint(ok))

	// --- Section 4.3/5.2 banking executions.
	bn, bspec, progs, init := benchBankFixture()
	run := func(order []int) (model.Execution, error) {
		vals := copyInit(init)
		return model.Interleave(progs, vals, order, false)
	}
	atomicOrder := []int{0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3}
	e, err := run(atomicOrder)
	if err != nil {
		return nil, err
	}
	res, err := coherent.CheckExecution(e, bn, bspec)
	if err != nil {
		return nil, err
	}
	row("phase-interleaved transfers are multilevel atomic", "true", fmt.Sprint(res.Atomic))
	row("...but not conflict serializable", "false", fmt.Sprint(serial.Serializable(e)))

	correctableOrder := []int{3, 2, 2, 3, 3, 2, 2, 0, 0, 0, 0, 1, 1, 1, 1}
	e2, err := run(correctableOrder)
	if err != nil {
		return nil, err
	}
	res2, err := coherent.CheckExecution(e2, bn, bspec)
	if err != nil {
		return nil, err
	}
	row("audit split by t3 is correctable", "true", fmt.Sprint(res2.Correctable))
	row("...though not atomic as recorded", "false", fmt.Sprint(res2.Atomic))

	badOrder := []int{3, 0, 0, 3, 3, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	e3, err := run(badOrder)
	if err != nil {
		return nil, err
	}
	bad, err := coherent.Correctable(e3, bn, bspec)
	if err != nil {
		return nil, err
	}
	row("audit split across t1's writes is not correctable", "false", fmt.Sprint(bad))
	return t, nil
}

// benchBankFixture mirrors the Section 5.2 fixture used in the tests.
func benchBankFixture() (*nest.Nest, breakpoint.Spec, []model.Program, map[model.EntityID]model.Value) {
	mk := func(id model.TxnID, w1, w2, d1, d2 model.EntityID) *model.Scripted {
		return &model.Scripted{Txn: id, Ops: []model.Op{
			model.Add(w1, -10), model.Add(w2, -10), model.Add(d1, 10), model.Add(d2, 10),
		}}
	}
	progs := []model.Program{
		mk("t1", "A", "B", "C", "D"),
		mk("t2", "A", "C", "E", "G"),
		mk("t3", "B", "D", "F", "H"),
		&model.Scripted{Txn: "a", Ops: []model.Op{model.Read("A"), model.Read("B"), model.Read("C")}},
	}
	n := nest.New(4)
	n.Add("t1", "cust", "f1")
	n.Add("t2", "cust", "f2")
	n.Add("t3", "cust", "f3")
	n.Add("a", "audit", "audit")
	spec := breakpoint.Func{Levels: 4, Fn: func(t model.TxnID, prefix []model.Step) int {
		if t == "a" {
			return 4
		}
		if len(prefix) == 2 {
			return 2
		}
		return 3
	}}
	init := map[model.EntityID]model.Value{}
	for _, x := range []model.EntityID{"A", "B", "C", "D", "E", "F", "G", "H"} {
		init[x] = 100
	}
	return n, spec, progs, init
}

// E3Extension exercises Lemma 1 at scale: random correctable executions
// across k and n, each extended to a coherent total order and re-verified.
func E3Extension(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E3: Lemma 1 extension of coherent partial orders",
		"k", "txns", "steps/txn", "correctable", "extended", "verified", "µs/extension")
	rng := o.rng()
	for _, cfg := range []struct{ k, txns, steps int }{
		{2, 4, 4}, {3, 4, 6}, {4, 6, 6}, {5, 6, 8},
	} {
		trials := 40 * o.scale()
		correctable, extended, verified := 0, 0, 0
		var elapsed time.Duration
		for trial := 0; trial < trials; trial++ {
			n := nest.New(cfg.k)
			progs := make([]model.Program, cfg.txns)
			for i := range progs {
				ops := make([]model.Op, cfg.steps)
				for j := range ops {
					ops[j] = model.Add(model.EntityID(fmt.Sprintf("x%d", rng.Intn(cfg.txns+2))), 1)
				}
				id := model.TxnID(fmt.Sprintf("t%02d", i))
				progs[i] = &model.Scripted{Txn: id, Ops: ops}
				mid := make([]string, cfg.k-2)
				for l := range mid {
					mid[l] = fmt.Sprintf("L%d-%d", l, (i>>uint(l))&1)
				}
				n.Add(id, mid...)
			}
			spec := breakpoint.Func{Levels: cfg.k, Fn: func(_ model.TxnID, prefix []model.Step) int {
				return 2 + len(prefix)%(cfg.k-1)
			}}
			// Gentle interleaving (10% switch rate): uniform merges are
			// almost never correctable at k ≥ 4, which would leave the
			// extension unexercised.
			e, err := windowedInterleave(progs, map[model.EntityID]model.Value{}, rng, 10)
			if err != nil {
				return nil, err
			}
			res, err := coherent.CheckExecution(e, n, spec)
			if err != nil {
				return nil, err
			}
			if !res.Correctable {
				continue
			}
			correctable++
			start := time.Now()
			w, ok := res.Witness()
			elapsed += time.Since(start)
			if !ok {
				continue
			}
			extended++
			if coherent.VerifyWitness(e, w, n, spec) == nil {
				verified++
			}
		}
		var us float64
		if extended > 0 {
			us = float64(elapsed.Microseconds()) / float64(extended)
		}
		t.Row(cfg.k, cfg.txns, cfg.steps, correctable, extended, verified, us)
	}
	return t, nil
}

// E4CycleRate scores identical interleavings of the banking programs under
// both criteria across a contention sweep: the switch probability controls
// how often the interleaving generator changes transactions mid-flight
// (0 = serial, 1 = uniformly random merge). The paper predicts the MLA
// rejection rate is bounded by the serializability rejection rate ("fewer
// cycles … leading to fewer rollbacks"); the gap is the concurrency MLA
// buys.
func E4CycleRate(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E4: rejected interleavings, serializability vs multilevel atomicity",
		"switch%", "trials", "ser-rejected%", "mla-rejected%", "mla-only-admitted%")
	rng := o.rng()
	trials := 80 * o.scale()
	for _, switchPct := range []int{3, 6, 12, 25, 50} {
		serRej, mlaRej, mlaOnly := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			wl := bankWorkload(2, 4, 8, 1, int64(trial)+o.Seed*1000)
			e, err := windowedInterleave(wl.Programs, copyInit(wl.Init), rng, switchPct)
			if err != nil {
				return nil, err
			}
			ser := serial.Serializable(e)
			mla, err := coherent.Correctable(e, wl.Nest, wl.Spec)
			if err != nil {
				return nil, err
			}
			if !ser {
				serRej++
			}
			if !mla {
				mlaRej++
			}
			if mla && !ser {
				mlaOnly++
			}
			if !mla && ser {
				return nil, fmt.Errorf("E4: serializable execution rejected by MLA (impossible)")
			}
		}
		pct := func(x int) float64 { return 100 * float64(x) / float64(trials) }
		t.Row(switchPct, trials, pct(serRej), pct(mlaRej), pct(mlaOnly))
	}
	return t, nil
}

// windowedInterleave runs the programs to completion, switching away from
// the current transaction with probability switchPct% per step — a model of
// low-to-high context-switch contention.
func windowedInterleave(programs []model.Program, vals map[model.EntityID]model.Value, rng interface{ Intn(int) int }, switchPct int) (model.Execution, error) {
	states := make([]model.ProgState, len(programs))
	seqs := make([]int, len(programs))
	var live []int
	for i, p := range programs {
		states[i] = p.Init()
		if _, ok := states[i].Next(); ok {
			live = append(live, i)
		}
	}
	var e model.Execution
	cur := -1
	for len(live) > 0 {
		if cur < 0 || rng.Intn(100) < switchPct || !isLive(live, cur) {
			cur = live[rng.Intn(len(live))]
		}
		x, _ := states[cur].Next()
		seqs[cur]++
		before := vals[x]
		after, label, next := states[cur].Apply(before)
		vals[x] = after
		e = append(e, model.Step{Txn: programs[cur].ID(), Seq: seqs[cur], Entity: x, Label: label, Before: before, After: after})
		states[cur] = next
		if _, ok := next.Next(); !ok {
			for i, li := range live {
				if li == cur {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			cur = -1
		}
	}
	return e, nil
}

func isLive(live []int, i int) bool {
	for _, l := range live {
		if l == i {
			return true
		}
	}
	return false
}
