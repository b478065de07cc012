package serial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mla/internal/model"
)

func st(t model.TxnID, seq int, x model.EntityID) model.Step {
	return model.Step{Txn: t, Seq: seq, Entity: x}
}

func TestSerializableSimple(t *testing.T) {
	// t1 then t2 on x: acyclic.
	e := model.Execution{st("t1", 1, "x"), st("t2", 1, "x")}
	if !Serializable(e) {
		t.Error("simple ordered conflict must be serializable")
	}
	// Classic cycle: t1→t2 on x, t2→t1 on y.
	bad := model.Execution{
		st("t1", 1, "x"), st("t2", 1, "x"),
		st("t2", 2, "y"), st("t1", 2, "y"),
	}
	if Serializable(bad) {
		t.Error("t1↔t2 cycle must not be serializable")
	}
}

func TestGraphEdges(t *testing.T) {
	e := model.Execution{
		st("t1", 1, "x"), st("t2", 1, "x"), st("t1", 2, "y"),
	}
	g := BuildGraph(e)
	if !g.HasEdge("t1", "t2") {
		t.Error("missing edge t1→t2")
	}
	if g.HasEdge("t2", "t1") {
		t.Error("phantom edge t2→t1")
	}
	if g.Edges() != 1 {
		t.Errorf("Edges = %d", g.Edges())
	}
	if g.HasEdge("ghost", "t1") {
		t.Error("unknown transactions have no edges")
	}
}

func TestWitnessIsSerialAndEquivalent(t *testing.T) {
	// Interleaved but serializable: t2 fully after t1 in conflict order.
	e := model.Execution{
		st("t1", 1, "x"),
		st("t2", 1, "z"),
		st("t1", 2, "y"),
		st("t2", 2, "x"),
	}
	w, ok := Witness(e)
	if !ok {
		t.Fatal("expected a serial witness")
	}
	if !IsSerial(w) {
		t.Errorf("witness not serial: %v", w)
	}
	if !e.Equivalent(w) {
		t.Errorf("witness not equivalent: %v", w)
	}
	if _, ok := Witness(model.Execution{
		st("t1", 1, "x"), st("t2", 1, "x"),
		st("t2", 2, "y"), st("t1", 2, "y"),
	}); ok {
		t.Error("non-serializable execution must not have a witness")
	}
}

func TestIsSerial(t *testing.T) {
	if !IsSerial(model.Execution{st("a", 1, "x"), st("a", 2, "y"), st("b", 1, "x")}) {
		t.Error("contiguous transactions are serial")
	}
	if IsSerial(model.Execution{st("a", 1, "x"), st("b", 1, "x"), st("a", 2, "y")}) {
		t.Error("a resumed after b: not serial")
	}
	if !IsSerial(nil) {
		t.Error("empty execution is serial")
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	// No conflicts: order should be ID-sorted.
	e := model.Execution{st("c", 1, "z"), st("a", 1, "x"), st("b", 1, "y")}
	order, ok := BuildGraph(e).TopoOrder()
	if !ok || len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v ok=%v", order, ok)
	}
}

// Property: a witness, when it exists, is always serial and conflict
// equivalent; serial executions are always serializable.
func TestQuickWitnessProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(uint8) bool {
		// Random 3 txns × 3 steps over 3 entities.
		var e model.Execution
		seqs := [3]int{}
		type slot struct{ txn, cnt int }
		var slots []slot
		for i := 0; i < 3; i++ {
			slots = append(slots, slot{i, 3})
		}
		ents := []model.EntityID{"x", "y", "z"}
		for len(slots) > 0 {
			i := rng.Intn(len(slots))
			txn := slots[i].txn
			slots[i].cnt--
			if slots[i].cnt == 0 {
				slots = append(slots[:i], slots[i+1:]...)
			}
			seqs[txn]++
			e = append(e, st(model.TxnID(rune('a'+txn)), seqs[txn], ents[rng.Intn(3)]))
		}
		w, ok := Witness(e)
		if ok != Serializable(e) {
			return false
		}
		if ok {
			return IsSerial(w) && e.Equivalent(w)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Edges returns the number of directed edges.
func (g *Graph) Edges() int {
	n := 0
	for _, row := range g.adj {
		for _, b := range row {
			if b {
				n++
			}
		}
	}
	return n
}

// HasEdge reports whether the graph has an edge t → u.
func (g *Graph) HasEdge(t, u model.TxnID) bool {
	i, ok1 := g.idx[t]
	j, ok2 := g.idx[u]
	return ok1 && ok2 && g.adj[i][j]
}

// Witness returns a serial execution equivalent to e, or ok=false when e is
// not serializable. The witness replays e's steps grouped by transaction in
// a topological order of the serialization graph.
func Witness(e model.Execution) (model.Execution, bool) {
	order, ok := BuildGraph(e).TopoOrder()
	if !ok {
		return nil, false
	}
	out := make(model.Execution, 0, len(e))
	for _, t := range order {
		for _, s := range e {
			if s.Txn == t {
				out = append(out, s)
			}
		}
	}
	return out, true
}

// IsSerial reports whether e is a serial execution: the steps of each
// transaction are contiguous.
func IsSerial(e model.Execution) bool {
	seen := make(map[model.TxnID]bool)
	var cur model.TxnID
	for i, s := range e {
		if i == 0 || s.Txn != cur {
			if seen[s.Txn] {
				return false
			}
			seen[s.Txn] = true
			cur = s.Txn
		}
	}
	return true
}
