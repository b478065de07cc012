package coherent

import (
	"fmt"
	"math/rand"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// TestOnlineClosureMatchesOffline is the soundness keystone for the
// Detector: drive random executions step by step through the online
// closure, and at every prefix compare its cycle verdict with the batch
// Theorem 2 checker. The two implementations share no code beyond the
// bitset idea, so agreement is strong evidence both are right.
func TestOnlineClosureMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(3) // 2..4
		nTxn := 3 + rng.Intn(3)
		nEnt := 2 + rng.Intn(3)
		stepsPer := 2 + rng.Intn(4)

		n := nest.New(k)
		progs := make([]model.Program, nTxn)
		for i := 0; i < nTxn; i++ {
			id := model.TxnID(fmt.Sprintf("t%d", i))
			ops := make([]model.Op, stepsPer)
			for j := range ops {
				ops[j] = model.Add(model.EntityID(fmt.Sprintf("x%d", rng.Intn(nEnt))), 1)
			}
			progs[i] = &model.Scripted{Txn: id, Ops: ops}
			mid := make([]string, k-2)
			for l := range mid {
				mid[l] = fmt.Sprintf("c%d", i%(2+l))
			}
			n.Add(id, mid...)
		}
		// Random per-position coarseness, fixed by (txn, position) so the
		// spec is a function (deterministic).
		cutSeed := rng.Int63()
		spec := breakpoint.Func{Levels: k, Fn: func(tx model.TxnID, prefix []model.Step) int {
			h := cutSeed
			for _, c := range tx {
				h = h*131 + int64(c)
			}
			h = h*131 + int64(len(prefix))
			if h < 0 {
				h = -h
			}
			return 2 + int(h)%(k-1)
		}}

		e, err := model.RandomInterleave(progs, map[model.EntityID]model.Value{}, rng)
		if err != nil {
			t.Fatal(err)
		}

		oc := NewOnline(k, n.Level)
		perTxn := make(map[model.TxnID][]model.Step)
		onlineCyclicAt := -1
		for i, s := range e {
			ok := oc.AddStep(s.Txn, s.Entity)
			if !ok {
				onlineCyclicAt = i
				break
			}
			perTxn[s.Txn] = append(perTxn[s.Txn], s)
			// Report the breakpoint after this step, as the simulator would
			// (not after the final step).
			if len(perTxn[s.Txn]) < stepsPer {
				oc.AddCut(s.Txn, spec.CutAfter(s.Txn, perTxn[s.Txn]))
			}

			// Offline verdict on the prefix so far.
			prefix := e[:i+1]
			okOff, err := Correctable(prefix, n, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !okOff {
				t.Fatalf("trial %d: offline rejects prefix %d but online accepted", trial, i)
			}
		}
		if onlineCyclicAt >= 0 {
			// The prefix including the rejected step must be offline-rejected.
			prefix := e[:onlineCyclicAt+1]
			okOff, err := Correctable(prefix, n, spec)
			if err != nil {
				t.Fatal(err)
			}
			if okOff {
				t.Fatalf("trial %d: online rejected step %d of a correctable prefix", trial, onlineCyclicAt)
			}
		}
	}
}

// TestOnlineClosureRebuild: dropping a transaction and replaying must give
// the same verdicts as never having run it.
func TestOnlineClosureRebuild(t *testing.T) {
	n := nest.New(2)
	n.Add("a")
	n.Add("b")
	n.Add("c")
	oc := NewOnline(2, n.Level)
	// a and b ping-pong toward a cycle; c is independent.
	steps := []struct {
		txn model.TxnID
		ent model.EntityID
	}{
		{"a", "x"}, {"c", "z"}, {"b", "x"}, {"b", "y"},
	}
	for _, s := range steps {
		if !oc.AddStep(s.txn, s.ent) {
			t.Fatalf("unexpected cycle at %v", s)
		}
		oc.AddCut(s.txn, 2)
	}
	// a on y closes the a→b→a cycle.
	if oc.AddStep("a", "y") {
		t.Fatal("expected a cycle")
	}
	oc.Rebuild(map[model.TxnID]bool{"b": true})
	// With b gone, a on y is clean.
	if !oc.AddStep("a", "y") {
		t.Fatal("cycle persisted after rebuild dropped b")
	}
	if oc.Steps() != 3 {
		t.Errorf("steps = %d, want 3 (a's x, c's z, a's new y)", oc.Steps())
	}
}

func TestOnlineClosureCycleTxns(t *testing.T) {
	n := nest.New(2)
	n.Add("a")
	n.Add("b")
	oc := NewOnline(2, n.Level)
	oc.AddStep("a", "x")
	oc.AddStep("b", "x")
	oc.AddStep("b", "y")
	if oc.AddStep("a", "y") {
		t.Fatal("expected cycle")
	}
	txns := oc.CycleTxns()
	if len(txns) == 0 {
		t.Fatal("no cycle transactions reported")
	}
	seen := map[model.TxnID]bool{}
	for _, x := range txns {
		seen[x] = true
	}
	if !seen["a"] && !seen["b"] {
		t.Errorf("cycle txns = %v", txns)
	}
	if oc.CycleTxns() == nil {
		t.Error("CycleTxns must stay available until rebuild")
	}
}

// TestObitset covers the bitset as the Online grows it: from nil, with
// unequal widths.
func TestObitset(t *testing.T) {
	var b bitset
	if b.has(5) {
		t.Error("empty set has nothing")
	}
	b.set(5)
	b.set(64)
	b.set(129)
	if !b.has(5) || !b.has(64) || !b.has(129) || b.has(6) {
		t.Error("set/has broken")
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 5 || got[2] != 129 {
		t.Errorf("forEach = %v", got)
	}
	var other bitset
	other.set(5)
	var diff []int
	b.forEachNotIn(other, func(i int) { diff = append(diff, i) })
	if len(diff) != 2 || diff[0] != 64 {
		t.Errorf("forEachNotIn = %v", diff)
	}
}

// Extent returns the number of live steps of t.
func (oc *Online) Extent(t model.TxnID) int {
	ti, ok := oc.txnIdx[t]
	if !ok {
		return 0
	}
	return len(oc.perTxn[ti])
}
