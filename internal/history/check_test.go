package history

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
)

// checkClosedCycle fails t unless w is a cycle: every edge starts where the
// one before it ends, the last wrapping to the first, and has a known kind.
func checkClosedCycle(t *testing.T, w *Witness) {
	t.Helper()
	if w == nil || len(w.Edges) < 2 {
		t.Fatalf("want a cycle of >= 2 edges, got %+v", w)
	}
	for i, e := range w.Edges {
		next := w.Edges[(i+1)%len(w.Edges)]
		if e.To != next.From {
			t.Errorf("edge %d ends at %s but edge %d starts at %s", i, e.To, i+1, next.From)
		}
		switch e.Kind {
		case EdgeProgram, EdgeConflict, EdgeCoherence:
		default:
			t.Errorf("edge %d has unknown kind %q", i, e.Kind)
		}
	}
}

// TestRecurringLabelsMatchCoherent is the checker-vs-Theorem-2 oracle over
// nests the bank workload never builds: k in 2..5, every intermediate label
// drawn from {a, b}, so the same label names different classes under
// different parents ("b" inside "a" is not "b" inside "b"). FromExecution
// synthesizes labels unique per class, so the history's level rows are
// replaced by the raw ones; a checker that keyed a class by its label alone
// would merge classes the nest keeps apart.
func TestRecurringLabelsMatchCoherent(t *testing.T) {
	ents := []model.EntityID{"x", "y", "z"}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		n := nest.New(k)
		levels := make(map[model.TxnID][]string)
		cuts := make(map[model.TxnID][]int) // cuts[t][p-1]: coarseness after step p
		var progs []model.Program
		for i := 0; i < 2+rng.Intn(5); i++ {
			id := model.TxnID(fmt.Sprintf("t%d", i))
			row := make([]string, k-2)
			for j := range row {
				row[j] = string("ab"[rng.Intn(2)])
			}
			n.Add(id, row...)
			levels[id] = row
			ops := make([]model.Op, 1+rng.Intn(4))
			for j := range ops {
				ops[j] = model.Add(ents[rng.Intn(len(ents))], 1)
				cuts[id] = append(cuts[id], 2+rng.Intn(k-1))
			}
			progs = append(progs, &model.Scripted{Txn: id, Ops: ops})
		}
		spec := breakpoint.Func{Levels: k, Fn: func(t model.TxnID, prefix []model.Step) int {
			return cuts[t][len(prefix)-1]
		}}
		exec, err := model.RandomInterleave(progs, make(map[model.EntityID]model.Value), rng)
		if err != nil {
			t.Fatal(err)
		}
		h, err := FromExecution(exec, n, spec)
		if err != nil {
			t.Fatal(err)
		}
		h.Levels = levels
		rep, err := Check(h)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coherent.CheckExecution(exec, n, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Atomic != res.Atomic || rep.Correctable != res.Correctable {
			t.Fatalf("seed %d (k=%d, levels %v): history says (%v,%v), coherent says (%v,%v)",
				seed, k, levels, rep.Atomic, rep.Correctable, res.Atomic, res.Correctable)
		}
		if !rep.Correctable {
			checkClosedCycle(t, rep.Witness)
		}
	}
}

// TestWitnessSearchAllocatesNothingPerVertex: the witness BFS enumerates
// each visited vertex's successors into checker scratch, so on a violating
// history the search allocates per start, not per visited vertex.
func TestWitnessSearchAllocatesNothingPerVertex(t *testing.T) {
	paths, err := filepath.Glob("testdata/violation_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no violating testdata: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		c, err := newChecker(h)
		if err != nil {
			t.Fatal(err)
		}
		if !c.cyclic || c.witness() == nil {
			t.Fatalf("%s: no violation found", path)
		}
		succs := 0
		if got := testing.AllocsPerRun(10, func() {
			for v := range c.exec {
				c.forEachSucc(v, func(edge) { succs++ })
			}
		}); got != 0 {
			t.Errorf("%s: %.0f allocations enumerating every vertex's successors, want 0", path, got)
		}
		if succs == 0 {
			t.Errorf("%s: no successors enumerated", path)
		}
	}
}

// BenchmarkCheck times Check on serial banking histories of about 470
// steps (one 110-transaction epoch of the banking mix) and about 3,800
// steps: sixteen families of four accounts, half the transfers crossing
// families. Serial, so the input is identical every run.
func BenchmarkCheck(b *testing.B) {
	for _, size := range []struct{ transfers, creditors, audits int }{
		{100, 8, 2},
		{800, 64, 16},
	} {
		wl := bank.Generate(bank.Params{
			Families: 16, AccountsPerFamily: 4, InitialBalance: 1000,
			Transfers: size.transfers, CreditorAudits: size.creditors, BankAudits: size.audits,
			Amount: 100, Reserve: 125, CrossFamilyPct: 50, Seed: 1,
		})
		vals := make(map[model.EntityID]model.Value, len(wl.Init))
		for x, v := range wl.Init {
			vals[x] = v
		}
		exec, err := model.RunSerial(wl.Programs, vals)
		if err != nil {
			b.Fatal(err)
		}
		h, err := FromExecution(exec, wl.Nest, wl.Spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("steps=%d", len(exec)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := Check(h)
				if err != nil || !rep.Correctable {
					b.Fatalf("serial history: %v, %v", rep, err)
				}
			}
		})
	}
}
