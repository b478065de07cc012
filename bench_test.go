package mla_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mla/internal/bank"
	"mla/internal/bench"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
)

// The experiment benchmarks: each regenerates one EXPERIMENTS.md table per
// iteration at scale 1. Run `go test -bench=E -benchtime=1x -v` to see the
// tables once, or cmd/mlabench for the full-scale versions.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var ex *bench.Experiment
	for _, e := range bench.All() {
		if e.ID == id {
			ex = &e
			break
		}
	}
	if ex == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := ex.Run(bench.Config{Scale: 1, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if tbl.Len() == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

func BenchmarkE1Equivalence(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2PaperExamples(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3Extension(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4CycleRate(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Throughput(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6Audit(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7NestDepth(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8ActionTrees(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9CheckerScaling(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10Ablations(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11Recovery(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Sessions(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Distributed(b *testing.B)   { benchExperiment(b, "E13") }
func BenchmarkE14CrashRecovery(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15Conversations(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16HotSpot(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17EngineCrash(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18Chaos(b *testing.B)         { benchExperiment(b, "E18") }
func BenchmarkE19Perf(b *testing.B)          { benchExperiment(b, "E19") }
func BenchmarkE20MixedHistory(b *testing.B)  { benchExperiment(b, "E20") }
func BenchmarkE21Serve(b *testing.B)         { benchExperiment(b, "E21") }

// Micro-benchmarks for the hot paths.

// makeExecution builds a random n-step execution over txns transactions.
func makeExecution(n, txns, entities int, seed int64) (model.Execution, *nest.Nest) {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]model.Program, txns)
	nst := nest.New(3)
	per := n / txns
	for i := range progs {
		ops := make([]model.Op, per)
		for j := range ops {
			ops[j] = model.Add(model.EntityID(fmt.Sprintf("x%02d", rng.Intn(entities))), 1)
		}
		id := model.TxnID(fmt.Sprintf("t%03d", i))
		progs[i] = &model.Scripted{Txn: id, Ops: ops}
		nst.Add(id, fmt.Sprintf("c%d", i%3))
	}
	e, err := model.RandomInterleave(progs, map[model.EntityID]model.Value{}, rng)
	if err != nil {
		panic(err)
	}
	return e, nst
}

func BenchmarkCoherentClosure(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("steps=%d", n), func(b *testing.B) {
			e, nst := makeExecution(n, 8, 8, 42)
			spec := breakpoint.Uniform{Levels: 3, C: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coherent.CheckExecution(e, nst, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWitnessExtension(b *testing.B) {
	// Build a guaranteed-correctable, non-trivial execution: transactions
	// of the same class interleave freely (atomic under C=2), classes run
	// one after another.
	rng := rand.New(rand.NewSource(17))
	spec := breakpoint.Uniform{Levels: 3, C: 2}
	nst := nest.New(3)
	var e model.Execution
	vals := map[model.EntityID]model.Value{}
	for class := 0; class < 3; class++ {
		var progs []model.Program
		for i := 0; i < 4; i++ {
			id := model.TxnID(fmt.Sprintf("c%dt%d", class, i))
			ops := make([]model.Op, 8)
			for j := range ops {
				ops[j] = model.Add(model.EntityID(fmt.Sprintf("x%02d", rng.Intn(8))), 1)
			}
			progs = append(progs, &model.Scripted{Txn: id, Ops: ops})
			nst.Add(id, fmt.Sprintf("g%d", class))
		}
		part, err := model.RandomInterleave(progs, vals, rng)
		if err != nil {
			b.Fatal(err)
		}
		e = append(e, part...)
	}
	res, err := coherent.CheckExecution(e, nst, spec)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Correctable {
		b.Fatal("constructed execution must be correctable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := res.Witness(); !ok {
			b.Fatal("witness failed")
		}
	}
}

func BenchmarkPreventerRequests(b *testing.B) {
	wl := bank.Generate(bank.DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sched.NewPreventer(wl.Nest, wl.Spec)
		if _, err := sim.Run(sim.DefaultConfig(), wl.Programs, c, wl.Spec, wl.Init); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreventerResident pushes b.N Section 4.2 banking transactions
// (transfers, every 55th a 64-account bank audit) through ONE long-lived
// Preventer, each committing one transaction late — as under group commit —
// so the closure is never empty and commits are reclaimed by sealing and
// compaction, not by the quiescent reset alone. Sealing makes ns/op flat in
// b.N: compare -benchtime 2000x with 20000x (within 1.5×; a closure that
// only grows is ≈ 10× apart). Transaction IDs come from a ring: a sealed
// transaction's ID is free for reuse.
func BenchmarkPreventerResident(b *testing.B) {
	world := bank.World{Families: 16, AccountsPerFamily: 4, InitialBalance: 1000}
	accounts := world.Accounts()
	fam := make([][]model.EntityID, world.Families)
	for f := range fam {
		fam[f] = world.FamilyAccounts(f)
	}
	nst := nest.New(4)
	ids := make([]model.TxnID, 128)
	for i := range ids {
		ids[i] = model.TxnID(fmt.Sprintf("x%03d", i))
		nst.Add(ids[i], "cust", fmt.Sprintf("fam-%02d", i%world.Families))
	}
	nst.Add("audit", "audit", "audit")
	// The spec only supplies k: cuts are passed to Performed explicitly.
	p := sched.NewPreventer(nst, breakpoint.Uniform{Levels: 4, C: 3})
	transferCut := [...]int{3, 3, 2, 3, 0} // level 2 between withdrawals and deposits
	var xs [5]model.EntityID
	var prev model.TxnID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, ents := ids[i%len(ids)], xs[:]
		if i%55 == 27 {
			t, ents = "audit", accounts
		} else {
			from, to := fam[i%len(fam)], fam[(i+1+i%(len(fam)-1))%len(fam)]
			xs = [5]model.EntityID{from[i%4], from[(i+1)%4], from[(i+2)%4], to[i%4], to[(i+1)%4]}
		}
		p.Begin(t, int64(i+1))
		for s, x := range ents {
			if d := p.Request(t, s+1, x); d.Kind != sched.Grant {
				b.Fatalf("serial request %s[%d] got %v", t, s+1, d.Kind)
			}
			cut := 4 // audits: no breakpoint below the finest level
			if len(ents) == len(xs) {
				cut = transferCut[s]
			} else if s == len(ents)-1 {
				cut = 0
			}
			p.Performed(t, s+1, x, cut)
		}
		p.Finished(t)
		if prev != "" {
			p.Retired(prev)
		}
		prev = t
	}
	b.StopTimer()
	if slots := p.ClosureSlots(); slots > 4*len(accounts) {
		b.Fatalf("%d step slots after %d transactions: the closure grows with the run", slots, b.N)
	}
}

func BenchmarkDetectorRequests(b *testing.B) {
	wl := bank.Generate(bank.DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sched.NewDetector(wl.Nest, wl.Spec)
		if _, err := sim.Run(sim.DefaultConfig(), wl.Programs, c, wl.Spec, wl.Init); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimBanking2PL(b *testing.B) {
	wl := bank.Generate(bank.DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.DefaultConfig(), wl.Programs, sched.NewTwoPhase(), wl.Spec, wl.Init); err != nil {
			b.Fatal(err)
		}
	}
}
