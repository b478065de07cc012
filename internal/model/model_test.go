package model

import (
	"slices"
	"testing"
	"testing/quick"
)

func step(t TxnID, seq int, x EntityID, before, after Value) Step {
	return Step{Txn: t, Seq: seq, Entity: x, Label: "op", Before: before, After: after}
}

func TestExecutionTxnsOrder(t *testing.T) {
	e := Execution{
		step("b", 1, "x", 0, 1),
		step("a", 1, "y", 0, 1),
		step("b", 2, "y", 1, 2),
	}
	got := e.Txns()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Txns() = %v, want [b a]", got)
	}
}

func TestByTxnAndByEntity(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 0, 1),
		step("b", 1, "x", 1, 2),
		step("a", 2, "y", 0, 5),
	}
	bt := e.ByTxn()
	if len(bt["a"]) != 2 || bt["a"][0] != 0 || bt["a"][1] != 2 {
		t.Errorf("ByTxn[a] = %v", bt["a"])
	}
	be := e.ByEntity()
	if len(be["x"]) != 2 || be["x"][1] != 1 {
		t.Errorf("ByEntity[x] = %v", be["x"])
	}
}

func TestValidateAcceptsConsistent(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 10, 5),
		step("b", 1, "x", 5, 7),
		step("a", 2, "y", 0, 1),
	}
	if err := e.Validate(map[EntityID]Value{"x": 10}); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsSeqGap(t *testing.T) {
	e := Execution{step("a", 2, "x", 0, 1)}
	if err := e.Validate(nil); err == nil {
		t.Fatal("Validate accepted a sequence gap")
	}
}

func TestValidateRejectsValueMismatch(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 10, 5),
		step("b", 1, "x", 10, 7), // observed stale value
	}
	if err := e.Validate(map[EntityID]Value{"x": 10}); err == nil {
		t.Fatal("Validate accepted a broken value chain")
	}
}

func TestDependencyEdgesChainCoverage(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 0, 1),
		step("b", 1, "x", 1, 2),
		step("a", 2, "x", 2, 3),
	}
	edges := e.DependencyEdges()
	// Consecutive same-entity: (0,1), (1,2); same-txn: (0,2).
	want := map[[2]int]bool{{0, 1}: true, {1, 2}: true, {0, 2}: true}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for _, ed := range edges {
		if !want[ed] {
			t.Errorf("unexpected edge %v", ed)
		}
	}
}

func TestEquivalentReordersIndependentSteps(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 0, 1),
		step("b", 1, "y", 0, 1),
	}
	f := Execution{e[1], e[0]}
	if !e.Equivalent(f) {
		t.Fatal("independent steps should be swappable")
	}
}

func TestEquivalentRejectsEntityReorder(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 0, 1),
		step("b", 1, "x", 1, 2),
	}
	f := Execution{e[1], e[0]}
	if e.Equivalent(f) {
		t.Fatal("same-entity steps must keep their order")
	}
}

func TestEquivalentRejectsDifferentSteps(t *testing.T) {
	e := Execution{step("a", 1, "x", 0, 1)}
	f := Execution{step("a", 1, "y", 0, 1)}
	if e.Equivalent(f) {
		t.Fatal("different steps cannot be equivalent")
	}
}

func TestSameStepsIsOrderInsensitive(t *testing.T) {
	e := Execution{step("a", 1, "x", 0, 1), step("b", 1, "y", 0, 2)}
	f := Execution{e[1], e[0]}
	if !e.SameSteps(f) {
		t.Fatal("SameSteps should ignore order")
	}
	if !e.SameSteps(e) {
		t.Fatal("SameSteps should be reflexive")
	}
}

func TestRunSerial(t *testing.T) {
	p1 := &Scripted{Txn: "a", Ops: []Op{Add("x", -30), Add("y", 30)}}
	p2 := &Scripted{Txn: "b", Ops: []Op{Read("x")}}
	vals := map[EntityID]Value{"x": 100, "y": 0}
	e, err := RunSerial([]Program{p1, p2}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 3 {
		t.Fatalf("got %d steps", len(e))
	}
	if vals["x"] != 70 || vals["y"] != 30 {
		t.Fatalf("vals = %v", vals)
	}
	if err := e.Validate(map[EntityID]Value{"x": 100, "y": 0}); err != nil {
		t.Fatal(err)
	}
	if e[0].Label != "withdraw" || e[1].Label != "deposit" {
		t.Errorf("labels = %q %q", e[0].Label, e[1].Label)
	}
}

func TestInterleaveRespectsOrder(t *testing.T) {
	p1 := &Scripted{Txn: "a", Ops: []Op{Add("x", 1), Add("x", 1)}}
	p2 := &Scripted{Txn: "b", Ops: []Op{Add("x", 10)}}
	vals := map[EntityID]Value{}
	e, err := Interleave([]Program{p1, p2}, vals, []int{0, 1, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if vals["x"] != 12 {
		t.Fatalf("x = %d", vals["x"])
	}
	if e[1].Txn != "b" || e[1].Before != 1 || e[1].After != 11 {
		t.Fatalf("middle step = %v", e[1])
	}
}

func TestInterleaveErrors(t *testing.T) {
	p := &Scripted{Txn: "a", Ops: []Op{Read("x")}}
	if _, err := Interleave([]Program{p}, map[EntityID]Value{}, []int{0, 0}, false); err == nil {
		t.Error("stepping past the end should error")
	}
	if _, err := Interleave([]Program{p}, map[EntityID]Value{}, []int{}, false); err == nil {
		t.Error("incomplete execution should error when allowPartial=false")
	}
	if _, err := Interleave([]Program{p}, map[EntityID]Value{}, []int{}, true); err != nil {
		t.Errorf("allowPartial should permit incompleteness: %v", err)
	}
	if _, err := Interleave([]Program{p}, map[EntityID]Value{}, []int{3}, true); err == nil {
		t.Error("out-of-range program index should error")
	}
}

// Property: any interleaving of independent single-entity counters is a
// valid execution and is equivalent to itself under Validate/Equivalent.
func TestQuickInterleavingsValidate(t *testing.T) {
	f := func(orderSeed uint8) bool {
		progs := []Program{
			&Scripted{Txn: "a", Ops: []Op{Add("x", 1), Add("y", 1)}},
			&Scripted{Txn: "b", Ops: []Op{Add("y", 2), Add("z", 2)}},
		}
		// Derive a merge order deterministically from the seed.
		var order []int
		remaining := []int{2, 2}
		s := int(orderSeed)
		for remaining[0]+remaining[1] > 0 {
			pick := s % 2
			s /= 2
			if remaining[pick] == 0 {
				pick = 1 - pick
			}
			order = append(order, pick)
			remaining[pick]--
			if s == 0 {
				s = 3
			}
		}
		vals := map[EntityID]Value{}
		e, err := Interleave(progs, vals, order, false)
		if err != nil {
			return false
		}
		return e.Validate(map[EntityID]Value{}) == nil && e.Equivalent(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScriptedOps(t *testing.T) {
	w := Write("x", 42)
	if got := w.Apply(7); got != 42 {
		t.Errorf("Write applied = %d", got)
	}
	r := Read("x")
	if r.Apply != nil {
		t.Errorf("Read should have nil transform")
	}
	a := Add("x", 5)
	if got := a.Apply(7); got != 12 {
		t.Errorf("Add applied = %d", got)
	}
	if Add("x", -1).Label != "withdraw" || Add("x", 1).Label != "deposit" {
		t.Error("Add labels wrong")
	}
}

func TestStepString(t *testing.T) {
	s := step("a", 3, "x", 1, 2)
	if s.ID() != (StepID{"a", 3}) {
		t.Errorf("ID = %v", s.ID())
	}
	if s.ID().String() != "a[3]" {
		t.Errorf("StepID.String = %q", s.ID().String())
	}
}

func TestEntitiesSorted(t *testing.T) {
	e := Execution{
		step("a", 1, "z", 0, 1),
		step("a", 2, "m", 0, 1),
		step("b", 1, "z", 1, 2),
	}
	got := e.Entities()
	if len(got) != 2 || got[0] != "m" || got[1] != "z" {
		t.Fatalf("Entities = %v", got)
	}
}

func TestStepsOf(t *testing.T) {
	e := Execution{
		step("a", 1, "x", 0, 1),
		step("b", 1, "x", 1, 2),
		step("a", 2, "y", 0, 1),
	}
	sa := e.StepsOf("a")
	if len(sa) != 2 || sa[1].Seq != 2 {
		t.Fatalf("StepsOf(a) = %v", sa)
	}
}

// Steps of transaction t, in execution order.
func (e Execution) StepsOf(t TxnID) []Step {
	var out []Step
	for _, s := range e {
		if s.Txn == t {
			out = append(out, s)
		}
	}
	return out
}

// Entities returns the distinct entities accessed by e, sorted.
func (e Execution) Entities() []EntityID {
	seen := make(map[EntityID]bool)
	for _, s := range e {
		seen[s.Entity] = true
	}
	out := make([]EntityID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// ByTxn returns, for each transaction, the global indices of its steps in
// execution order. Within each transaction the indices are ascending and the
// Seq fields are 1..n: that is validated by Validate, not here.
func (e Execution) ByTxn() map[TxnID][]int {
	m := make(map[TxnID][]int)
	for i, s := range e {
		m[s.Txn] = append(m[s.Txn], i)
	}
	return m
}
