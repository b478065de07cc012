package coherent

import (
	"math/rand"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

func TestSCCTopoChain(t *testing.T) {
	// 0 -> 1 -> 2: three singleton components in order.
	adj := []bitset{newBitset(3), newBitset(3), newBitset(3)}
	adj[0].set(1)
	adj[1].set(2)
	comp, order := sccTopo(adj)
	if len(order) != 3 {
		t.Fatalf("components = %d", len(order))
	}
	if order[0][0] != 0 || order[1][0] != 1 || order[2][0] != 2 {
		t.Errorf("order = %v", order)
	}
	if comp[0] == comp[1] || comp[1] == comp[2] {
		t.Error("chain nodes must be in distinct components")
	}
}

func TestSCCTopoCycle(t *testing.T) {
	// 0 <-> 1, then -> 2.
	adj := []bitset{newBitset(3), newBitset(3), newBitset(3)}
	adj[0].set(1)
	adj[1].set(0)
	adj[1].set(2)
	comp, order := sccTopo(adj)
	if comp[0] != comp[1] {
		t.Error("0 and 1 form one component")
	}
	if comp[2] == comp[0] {
		t.Error("2 is separate")
	}
	if len(order) != 2 {
		t.Fatalf("components = %d", len(order))
	}
	// The cycle component must precede 2's.
	if len(order[0]) != 2 || len(order[1]) != 1 || order[1][0] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestSCCTopoDisconnected(t *testing.T) {
	adj := []bitset{newBitset(2), newBitset(2)}
	_, order := sccTopo(adj)
	if len(order) != 2 {
		t.Fatalf("components = %d", len(order))
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if b.count() != 3 {
		t.Errorf("count = %d", b.count())
	}
	if !b.has(64) || b.has(63) {
		t.Error("has broken")
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[2] != 129 {
		t.Errorf("forEach = %v", got)
	}
	o := newBitset(130)
	o.set(0)
	if b.orWith(o) || b.count() != 3 {
		t.Error("orWith of subset should not change")
	}
	o2 := newBitset(130)
	o2.set(99)
	if !b.orWith(o2) || !b.has(99) {
		t.Error("orWith missed new element")
	}
	// orWith grows a shorter receiver to the argument's width.
	var short bitset
	if !short.orWith(o2) || !short.has(99) || short.count() != 1 {
		t.Error("orWith did not grow its receiver")
	}
	b.andNot(o)
	if b.has(0) || !b.has(64) || b.count() != 3 {
		t.Error("andNot broken")
	}
	if !short.subsetOf(b) || o.subsetOf(b) {
		t.Error("subsetOf broken")
	}
}

// TestExtendTotalIdempotentRelation: the closure of an already-coherent
// total order is that order; extending returns it unchanged.
func TestExtendTotalOfTotalOrder(t *testing.T) {
	n := nest.New(2)
	n.Add("a")
	n.Add("b")
	e := model.Execution{
		{Txn: "a", Seq: 1, Entity: "x"},
		{Txn: "a", Seq: 2, Entity: "y"},
		{Txn: "b", Seq: 1, Entity: "x"},
		{Txn: "b", Seq: 2, Entity: "y"},
	}
	res, err := CheckExecution(e, n, breakpoint.Uniform{Levels: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Atomic {
		t.Fatal("serial execution must be atomic")
	}
	w, ok := res.Witness()
	if !ok {
		t.Fatal("witness failed")
	}
	for i := range e {
		if w[i] != e[i] {
			// Any coherent total order containing ≤e is acceptable, but for
			// a serial execution with full conflicts the order is forced.
			t.Fatalf("witness differs at %d: %v vs %v", i, w[i], e[i])
		}
	}
}

// TestQuickClosureIdempotent: feeding a closure's pairs back as extra edges
// changes nothing (the closure is a fixpoint).
func TestQuickClosureIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		inst := paperInstance(t)
		var extra [][2]int
		for i := 0; i < 3; i++ {
			a, b := rng.Intn(inst.N()), rng.Intn(inst.N())
			if a != b {
				extra = append(extra, [2]int{a, b})
			}
		}
		rel := inst.Closure(extra)
		if !rel.Acyclic() {
			continue
		}
		var pairs [][2]int
		for a := 0; a < inst.N(); a++ {
			for b := 0; b < inst.N(); b++ {
				if rel.Has(a, b) {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		rel2 := inst.Closure(pairs)
		if rel2.Pairs() != rel.Pairs() {
			t.Fatalf("trial %d: closure not idempotent: %d vs %d pairs", trial, rel2.Pairs(), rel.Pairs())
		}
	}
}

// TestWitnessContainsClosure: the witness order contains every closure
// pair, not just ≤e.
func TestWitnessContainsClosure(t *testing.T) {
	inst := paperInstance(t)
	rel := inst.Closure(r1Edges(t, inst))
	perm, err := rel.ExtendTotal()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, inst.N())
	for i, g := range perm {
		pos[g] = i
	}
	for a := 0; a < inst.N(); a++ {
		for b := 0; b < inst.N(); b++ {
			if rel.Has(a, b) && pos[a] > pos[b] {
				t.Fatalf("extension violates closure pair (%v,%v)", inst.ID(a), inst.ID(b))
			}
		}
	}
}
