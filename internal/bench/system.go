package bench

import (
	"context"
	"fmt"
	"time"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/cad"
	"mla/internal/coherent"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/nested"
)

// bankWorkload builds a banking workload with the given shape.
func bankWorkload(families, accounts, transfers, audits int, seed int64) *bank.Workload {
	p := bank.DefaultParams()
	p.Families = families
	p.AccountsPerFamily = accounts
	p.Transfers = transfers
	p.BankAudits = audits
	p.CreditorAudits = 2
	p.Seed = seed
	return bank.Generate(p)
}

// E5Throughput runs the banking workload under every control across a
// contention sweep. The paper's thesis predicts the MLA controls commit
// more per unit time than the serializable baselines, with the gap growing
// as contention rises.
func E5Throughput(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E5: banking throughput by control (committed txns / 1000 time units)",
		"families", "transfers", "control", "throughput", "p50-lat", "p99-lat", "waits", "aborts", "vs-2pl")
	sc := o.scale()
	for _, cfg := range []struct{ fams, xfers int }{
		{4, 12 * sc}, {2, 16 * sc}, {1, 16 * sc},
	} {
		base := 0.0
		for _, name := range []string{"serial", "2pl", "tso", "prevent", "detect"} {
			wl := bankWorkload(cfg.fams, 4, cfg.xfers, 1, o.Seed)
			c := controlByName(name, wl.Nest, wl.Spec)
			res, err := runSim(o.ctx(), wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				return nil, err
			}
			inv := wl.Check(res.Exec, res.Final)
			if !inv.ConservationOK || inv.TraceValid != nil {
				return nil, fmt.Errorf("E5: %s violated banking invariants", name)
			}
			th := res.Throughput()
			if name == "2pl" {
				base = th
			}
			ratio := "-"
			if base > 0 && name != "2pl" {
				ratio = metrics.Ratio(th, base)
			}
			t.Row(cfg.fams, cfg.xfers, name, th,
				res.LatencyPercentile(50), res.LatencyPercentile(99),
				res.Control.Waits, res.Stats.Aborts, ratio)
		}
	}
	return t, nil
}

// E6Audit sweeps the audit share of the banking mix, checking that audits
// stay exact under the MLA controls while transfer latency stays near the
// audit-free baseline — the [FGL] property the paper cites.
func E6Audit(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E6: audits vs transfer latency",
		"audits", "control", "audits-exact", "audits-inexact", "xfer-p50", "throughput")
	sc := o.scale()
	for _, audits := range []int{0, 1, 2, 4} {
		for _, name := range []string{"prevent", "2pl", "none"} {
			wl := bankWorkload(3, 4, 12*sc, audits, o.Seed)
			c := controlByName(name, wl.Nest, wl.Spec)
			res, err := runSim(o.ctx(), wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				return nil, err
			}
			inv := wl.Check(res.Exec, res.Final)
			if name != "none" && inv.AuditsInexact > 0 {
				return nil, fmt.Errorf("E6: %s produced %d inexact audits", name, inv.AuditsInexact)
			}
			t.Row(audits, name, inv.AuditsExact, inv.AuditsInexact,
				res.LatencyPercentile(50), res.Throughput())
		}
	}
	return t, nil
}

// E7NestDepth runs the CAD workload at nest depths 2..5 under the
// Preventer, averaging over several seeds: deeper nests expose more
// breakpoints to more transactions, cutting blocking (waits fall
// monotonically) and raising throughput (k=2 is serializability, k=5 the
// full specialty/team hierarchy).
func E7NestDepth(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E7: CAD throughput by nest depth (Preventer, mean over seeds)",
		"k", "throughput", "waits", "aborts", "snapshots-clean", "vs-k2")
	seeds := 5 * o.scale()
	base := 0.0
	for k := 2; k <= 5; k++ {
		var th float64
		waits, aborts, clean := 0, 0, 0
		for s := 0; s < seeds; s++ {
			p := cad.DefaultParams()
			p.Mods = 12
			p.Seed = o.Seed + int64(s)*101
			wl := cad.Generate(p)
			n, spec := wl.WithDepth(k)
			c := controlByName("prevent", n, spec)
			res, err := runSim(o.ctx(), wl.Programs, c, spec, wl.Init)
			if err != nil {
				return nil, err
			}
			inv := wl.Check(res.Exec, res.Final)
			if !inv.TotalsConsistent || inv.TraceValid != nil {
				return nil, fmt.Errorf("E7: k=%d violated CAD invariants", k)
			}
			if inv.SnapshotsDirty > 0 {
				return nil, fmt.Errorf("E7: k=%d produced %d dirty snapshots", k, inv.SnapshotsDirty)
			}
			th += res.Throughput()
			waits += res.Control.Waits
			aborts += res.Stats.Aborts
			clean += inv.SnapshotsClean
		}
		th /= float64(seeds)
		if k == 2 {
			base = th
		}
		ratio := "-"
		if k > 2 {
			ratio = metrics.Ratio(th, base)
		}
		t.Row(k, th, waits/seeds, aborts/seeds, clean, ratio)
	}
	return t, nil
}

// E8ActionTrees converts multilevel atomic executions into Section 7 nested
// action trees and verifies the structural properties.
func E8ActionTrees(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E8: nested action trees from MLA executions",
		"workload", "steps", "atomic", "nodes", "leaves", "depth", "fanout", "verified")
	// CAD at depth 5 under the Preventer, then witnessed to an atomic
	// execution via Theorem 2 / Lemma 1.
	p := cad.DefaultParams()
	p.Mods = 8 * o.scale()
	p.Seed = o.Seed
	wl := cad.Generate(p)
	c := controlByName("prevent", wl.Nest, wl.Spec)
	res, err := runSim(o.ctx(), wl.Programs, c, wl.Spec, wl.Init)
	if err != nil {
		return nil, err
	}
	chk, err := coherent.CheckExecution(res.Exec, wl.Nest, wl.Spec)
	if err != nil {
		return nil, err
	}
	w, ok := chk.Witness()
	if !ok {
		return nil, fmt.Errorf("E8: preventer execution not correctable")
	}
	tree, err := nested.Build(w, wl.Nest, wl.Spec)
	if err != nil {
		return nil, fmt.Errorf("E8: action tree rejected: %w", err)
	}
	st := tree.Stats()
	t.Row("cad/k=5", len(w), chk.Correctable, st.Nodes, st.Leaves, st.MaxDepth, st.MaxFanout, true)

	// Banking, same pipeline.
	bwl := bankWorkload(3, 4, 8*o.scale(), 1, o.Seed)
	bc := controlByName("prevent", bwl.Nest, bwl.Spec)
	bres, err := runSim(o.ctx(), bwl.Programs, bc, bwl.Spec, bwl.Init)
	if err != nil {
		return nil, err
	}
	bchk, err := coherent.CheckExecution(bres.Exec, bwl.Nest, bwl.Spec)
	if err != nil {
		return nil, err
	}
	bw, ok := bchk.Witness()
	if !ok {
		return nil, fmt.Errorf("E8: banking execution not correctable")
	}
	btree, err := nested.Build(bw, bwl.Nest, bwl.Spec)
	if err != nil {
		return nil, fmt.Errorf("E8: banking action tree rejected: %w", err)
	}
	bst := btree.Stats()
	t.Row("bank/k=4", len(bw), bchk.Correctable, bst.Nodes, bst.Leaves, bst.MaxDepth, bst.MaxFanout, true)
	return t, nil
}

// E9CheckerScaling measures the cost of the Theorem 2 test (coherent
// closure + cycle check) as the execution grows.
func E9CheckerScaling(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E9: Theorem 2 checker scaling",
		"steps", "k", "pairs", "ms/check", "correctable")
	rng := o.rng()
	for _, cfg := range []struct{ txns, steps, k int }{
		{4, 8, 2}, {8, 8, 3}, {8, 16, 4}, {16, 16, 4}, {16, 32, 4},
	} {
		n := nest.New(cfg.k)
		progs := make([]model.Program, cfg.txns)
		for i := range progs {
			ops := make([]model.Op, cfg.steps)
			for j := range ops {
				ops[j] = model.Add(model.EntityID(fmt.Sprintf("x%d", rng.Intn(cfg.txns))), 1)
			}
			id := model.TxnID(fmt.Sprintf("t%03d", i))
			progs[i] = &model.Scripted{Txn: id, Ops: ops}
			mid := make([]string, cfg.k-2)
			for l := range mid {
				mid[l] = fmt.Sprintf("c%d", i%(l+2))
			}
			n.Add(id, mid...)
		}
		spec := breakpoint.Uniform{Levels: cfg.k, C: 2}
		e, err := model.RandomInterleave(progs, map[model.EntityID]model.Value{}, rng)
		if err != nil {
			return nil, err
		}
		reps := 3 * o.scale()
		var pairs int
		var ok bool
		start := time.Now()
		for r := 0; r < reps; r++ {
			res, err := coherent.CheckExecution(e, n, spec)
			if err != nil {
				return nil, err
			}
			pairs = res.Rel.Pairs()
			ok = res.Correctable
		}
		ms := float64(time.Since(start).Microseconds()) / 1000 / float64(reps)
		t.Row(cfg.txns*cfg.steps, cfg.k, pairs, ms, ok)
	}
	return t, nil
}

// E10Ablations compares the sound Preventer (delay rule over the previewed
// coherent closure) with its direct-only ablation (per-entity last
// accessors, no transitive tracking — the naive nested-transaction
// specialization of Section 7) on two inputs: the banking workload, and a
// targeted three-transaction dependency chain where transitivity is
// load-bearing — t1 touches x, t2 relays x→y and finishes, t3 picks up y
// and then races t1 on w. The coherent closure forces all of t1 before t3
// (they relate only at level 1), so t3 touching w before t1 cycles; only
// closure-grade tracking sees this coming.
func E10Ablations(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E10: prevention, closure-based vs direct-only (naive nested specialization)",
		"control", "workload", "runs", "correctable", "unsound", "throughput(mean)")
	sc := o.scale()
	runs := 6 * sc
	for _, name := range []string{"prevent", "prevent-direct"} {
		correctable, unsound := 0, 0
		var thSum float64
		for r := 0; r < runs; r++ {
			wl := bankWorkload(2, 3, 10, 1, o.Seed+int64(r)*17)
			c := controlByName(name, wl.Nest, wl.Spec)
			res, err := runSim(o.ctx(), wl.Programs, c, wl.Spec, wl.Init)
			if err != nil {
				return nil, err
			}
			ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
			if err != nil {
				return nil, err
			}
			if ok {
				correctable++
			} else {
				unsound++
			}
			thSum += res.Throughput()
		}
		if name == "prevent" && unsound > 0 {
			return nil, fmt.Errorf("E10: sound preventer admitted %d non-correctable executions", unsound)
		}
		t.Row(name, "banking", runs, correctable, unsound, thSum/float64(runs))

		// Targeted chain.
		ok, err := chainScenarioCorrectable(o.ctx(), name)
		if err != nil {
			return nil, err
		}
		unsoundChain := 0
		if !ok {
			unsoundChain = 1
		}
		if name == "prevent" && unsoundChain > 0 {
			return nil, fmt.Errorf("E10: sound preventer admitted the chain counterexample")
		}
		t.Row(name, "chain", 1, boolToInt(ok), unsoundChain, "-")
	}
	return t, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// chainScenarioCorrectable runs the targeted three-transaction chain under
// the named control and reports whether the admitted execution is
// correctable.
func chainScenarioCorrectable(ctx context.Context, name string) (bool, error) {
	// t1: x, then private work, then w. t2: x, y (fast, finishes early).
	// t3: private warm-up, then y, then w. level(t1,t2)=2 with per-step
	// level-2 breakpoints, so t2 overtakes t1 mid-flight; t3 relates to
	// both only at level 1. The fillers time t3's y after t2's and t3's w
	// before t1's, materializing the t1→t2→t3→t1 closure cycle unless the
	// scheduler tracks t3's transitive dependency on t1.
	t1 := &model.Scripted{Txn: "t1", Ops: []model.Op{
		model.Add("x", 1), model.Add("p1", 1), model.Add("p2", 1),
		model.Add("p3", 1), model.Add("p4", 1), model.Add("w", 1),
	}}
	t2 := &model.Scripted{Txn: "t2", Ops: []model.Op{model.Add("x", 1), model.Add("y", 1)}}
	t3 := &model.Scripted{Txn: "t3", Ops: []model.Op{
		model.Add("q1", 1), model.Add("q2", 1), model.Add("q3", 1),
		model.Add("y", 1), model.Add("w", 1),
	}}
	n := nest.New(3)
	n.Add("t1", "g")
	n.Add("t2", "g")
	n.Add("t3", "solo")
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	c := controlByName(name, n, spec)
	cfg := simDefault()
	res, err := simRun(ctx, cfg, []model.Program{t1, t2, t3}, c, spec)
	if err != nil {
		return false, err
	}
	return coherent.Correctable(res.Exec, n, spec)
}
