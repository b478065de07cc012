package coherent

import (
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// paperInstance reconstructs the running example of Subsection 4.2:
// k = 3, T = {t1,t2,t3}, π(2) classes {t1,t2} and {t3}; each ti has steps
// a_i1..a_i4 with B(2) classes {a_i1,a_i2}, {a_i3,a_i4} (B(1) and B(3) are
// forced).
func paperInstance(t *testing.T) *Instance {
	t.Helper()
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
	inst, err := NewAbstract(n, counts, descs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// idx resolves a_{ti,s} to the global index.
func idx(t *testing.T, inst *Instance, txn model.TxnID, seq int) int {
	t.Helper()
	g, ok := inst.Index(txn, seq)
	if !ok {
		t.Fatalf("no index for %s[%d]", txn, seq)
	}
	return g
}

// transitiveClosure computes a plain reachability reference over the given
// edges (no coherence rule), for comparing against the coherent closure.
func transitiveClosure(n int, edges [][2]int) [][]bool {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for _, e := range edges {
		reach[e[0]][e[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	return reach
}

func r1Edges(t *testing.T, inst *Instance) [][2]int {
	return [][2]int{
		{idx(t, inst, "t1", 2), idx(t, inst, "t2", 2)}, // (a12,a22)
		{idx(t, inst, "t2", 2), idx(t, inst, "t1", 3)}, // (a22,a13)
		{idx(t, inst, "t1", 4), idx(t, inst, "t3", 1)}, // (a14,a31)
		{idx(t, inst, "t2", 4), idx(t, inst, "t3", 3)}, // (a24,a33)
	}
}

func r2Edges(t *testing.T, inst *Instance) [][2]int {
	return [][2]int{
		{idx(t, inst, "t1", 1), idx(t, inst, "t2", 2)}, // (a11,a22)
		{idx(t, inst, "t2", 1), idx(t, inst, "t1", 3)}, // (a21,a13)
		{idx(t, inst, "t1", 1), idx(t, inst, "t3", 1)}, // (a11,a31)
		{idx(t, inst, "t2", 1), idx(t, inst, "t3", 3)}, // (a21,a33)
	}
}

// TestPaperR1Coherent: the paper states R1 is a coherent partial order.
// Under the formal definition of rule (b) its transitive closure is in fact
// missing a handful of level-1 completions — e.g. (a22,a31) ∈ R1 via
// a22→a13→a14→a31 and level(t2,t3)=1 forces (a23,a31) and (a24,a31), which
// are not derivable by transitivity alone (an apparent oversight in the
// example; both of the paper's own total orders contain these pairs). We
// therefore check: the closure contains the transitive closure, remains a
// partial order, and every extra pair is such a level-1 whole-transaction
// completion.
func TestPaperR1Coherent(t *testing.T) {
	inst := paperInstance(t)
	edges := r1Edges(t, inst)
	rel := inst.Closure(edges)
	if !rel.Acyclic() {
		t.Fatal("R1 must be acyclic")
	}
	all := append(inst.programEdges(), edges...)
	ref := transitiveClosure(inst.N(), all)
	for a := 0; a < inst.N(); a++ {
		for b := 0; b < inst.N(); b++ {
			if ref[a][b] && !rel.Has(a, b) {
				t.Errorf("closure lost transitive pair (%v,%v)", inst.ID(a), inst.ID(b))
			}
			if rel.Has(a, b) && !ref[a][b] {
				if lv := inst.level[inst.txnOf[a]][inst.txnOf[b]]; lv != 1 {
					t.Errorf("unexpected extra pair (%v,%v) at level %d", inst.ID(a), inst.ID(b), lv)
				}
			}
		}
	}
	// Both of the paper's total orders must contain the closure.
	if !rel.Has(idx(t, inst, "t2", 3), idx(t, inst, "t3", 1)) {
		t.Error("(a23,a31) should be a level-1 completion in the closure")
	}
}

// TestPaperR2ClosureEqualsR1: R2 is not coherent, but its coherent closure
// is exactly the partial order R1 (the paper's example).
func TestPaperR2ClosureEqualsR1(t *testing.T) {
	inst := paperInstance(t)
	relR2 := inst.Closure(r2Edges(t, inst))
	if !relR2.Acyclic() {
		t.Fatal("coherent closure of R2 must be a partial order")
	}
	relR1 := inst.Closure(r1Edges(t, inst))
	for a := 0; a < inst.N(); a++ {
		for b := 0; b < inst.N(); b++ {
			if relR1.Has(a, b) != relR2.Has(a, b) {
				t.Errorf("closure(R2) and closure(R1) differ at (%v,%v): %v vs %v",
					inst.ID(a), inst.ID(b), relR2.Has(a, b), relR1.Has(a, b))
			}
		}
	}
}

// TestPaperR3ClosureCyclic: replacing (a11,a31) by (a31,a11) makes the
// coherent closure R4 cyclic (the paper traces the cycle through (a32,a11),
// (a11,a22), (a22,a33)).
func TestPaperR3ClosureCyclic(t *testing.T) {
	inst := paperInstance(t)
	edges := [][2]int{
		{idx(t, inst, "t1", 1), idx(t, inst, "t2", 2)}, // (a11,a22)
		{idx(t, inst, "t2", 1), idx(t, inst, "t1", 3)}, // (a21,a13)
		{idx(t, inst, "t3", 1), idx(t, inst, "t1", 1)}, // (a31,a11) — flipped
		{idx(t, inst, "t2", 1), idx(t, inst, "t3", 3)}, // (a21,a33)
	}
	rel := inst.Closure(edges)
	if rel.Acyclic() {
		t.Fatal("coherent closure of R3 must contain a cycle")
	}
	// The paper's intermediate facts.
	if !rel.Has(idx(t, inst, "t3", 2), idx(t, inst, "t1", 1)) {
		t.Error("(a32,a11) should be in the closure (level-1 whole-transaction rule)")
	}
	if !rel.Has(idx(t, inst, "t2", 2), idx(t, inst, "t3", 3)) {
		t.Error("(a22,a33) should be in the closure")
	}
}

// TestPaperLemma1TotalOrders: the two coherent total orders the paper lists
// as containing R1 pass IsCoherentTotalOrder, and an order that interleaves
// inside a B(2) segment fails.
func TestPaperLemma1TotalOrders(t *testing.T) {
	inst := paperInstance(t)
	seqs := func(spec [][2]any) []int {
		var out []int
		for _, s := range spec {
			out = append(out, idx(t, inst, model.TxnID(s[0].(string)), s[1].(int)))
		}
		return out
	}
	order1 := seqs([][2]any{
		{"t1", 1}, {"t1", 2}, {"t2", 1}, {"t2", 2}, {"t1", 3}, {"t1", 4},
		{"t2", 3}, {"t2", 4}, {"t3", 1}, {"t3", 2}, {"t3", 3}, {"t3", 4},
	})
	order2 := seqs([][2]any{
		{"t1", 1}, {"t1", 2}, {"t2", 1}, {"t2", 2}, {"t2", 3}, {"t2", 4},
		{"t1", 3}, {"t1", 4}, {"t3", 1}, {"t3", 2}, {"t3", 3}, {"t3", 4},
	})
	if !inst.IsCoherentTotalOrder(order1) {
		t.Error("paper total order 1 must be coherent")
	}
	if !inst.IsCoherentTotalOrder(order2) {
		t.Error("paper total order 2 must be coherent")
	}
	// t2 interrupting t1 inside {a11,a12} violates the level-2 segment.
	bad := seqs([][2]any{
		{"t1", 1}, {"t2", 1}, {"t1", 2}, {"t2", 2}, {"t1", 3}, {"t1", 4},
		{"t2", 3}, {"t2", 4}, {"t3", 1}, {"t3", 2}, {"t3", 3}, {"t3", 4},
	})
	if inst.IsCoherentTotalOrder(bad) {
		t.Error("interleaving inside a B(2) segment must be incoherent")
	}
	// t3 interleaving with t1 at all (level 1) is incoherent even at the
	// phase boundary.
	bad2 := seqs([][2]any{
		{"t1", 1}, {"t1", 2}, {"t3", 1}, {"t3", 2}, {"t3", 3}, {"t3", 4},
		{"t1", 3}, {"t1", 4}, {"t2", 1}, {"t2", 2}, {"t2", 3}, {"t2", 4},
	})
	if inst.IsCoherentTotalOrder(bad2) {
		t.Error("level-1 transactions must be serialized")
	}
}

// TestLemma1Extension: extending the closure of R1 yields a coherent total
// order containing R1 — the constructive content of Lemma 1.
func TestLemma1Extension(t *testing.T) {
	inst := paperInstance(t)
	edges := r1Edges(t, inst)
	rel := inst.Closure(edges)
	perm, err := rel.ExtendTotal()
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != inst.N() {
		t.Fatalf("permutation covers %d of %d steps", len(perm), inst.N())
	}
	if !inst.IsCoherentTotalOrder(perm) {
		t.Fatal("extension must be coherent")
	}
	pos := make([]int, inst.N())
	for i, g := range perm {
		pos[g] = i
	}
	for _, e := range edges {
		if pos[e[0]] > pos[e[1]] {
			t.Errorf("extension violates R1 edge %v -> %v", inst.ID(e[0]), inst.ID(e[1]))
		}
	}
}

func TestExtendTotalOnCyclicFails(t *testing.T) {
	inst := paperInstance(t)
	rel := inst.Closure([][2]int{
		{idx(t, inst, "t1", 1), idx(t, inst, "t2", 1)},
		{idx(t, inst, "t2", 1), idx(t, inst, "t1", 1)},
	})
	if _, err := rel.ExtendTotal(); err == nil {
		t.Fatal("cyclic relation must not extend")
	}
}

func TestRelationQueries(t *testing.T) {
	inst := paperInstance(t)
	rel := inst.Closure(nil)
	a11 := idx(t, inst, "t1", 1)
	a12 := idx(t, inst, "t1", 2)
	a21 := idx(t, inst, "t2", 1)
	if !rel.Has(a11, a12) {
		t.Error("program order must be contained (condition (a))")
	}
	if rel.Comparable(a11, a21) {
		t.Error("steps of unrelated transactions start incomparable")
	}
	if !rel.Comparable(a11, a11) {
		t.Error("a step is comparable with itself")
	}
	if !rel.HasID(model.StepID{Txn: "t1", Seq: 1}, model.StepID{Txn: "t1", Seq: 4}) {
		t.Error("HasID must see transitive program order")
	}
	if rel.HasID(model.StepID{Txn: "ghost", Seq: 1}, model.StepID{Txn: "t1", Seq: 1}) {
		t.Error("unknown steps are unrelated")
	}
	// Program order contributes 3+2+1 pairs per transaction.
	if got := rel.Pairs(); got != 3*6 {
		t.Errorf("Pairs = %d, want 18", got)
	}
	if rel.Total() {
		t.Error("program orders alone are not total")
	}
}

func TestCloneIndependence(t *testing.T) {
	inst := paperInstance(t)
	rel := inst.Closure(nil)
	cl := rel.Clone()
	cl.Add([][2]int{{idx(t, inst, "t1", 1), idx(t, inst, "t2", 1)}})
	if rel.Has(idx(t, inst, "t1", 1), idx(t, inst, "t2", 1)) {
		t.Error("Clone must not share state")
	}
	if !cl.Has(idx(t, inst, "t1", 1), idx(t, inst, "t2", 1)) {
		t.Error("Add on clone must take effect")
	}
}

func TestNewAbstractErrors(t *testing.T) {
	n := nest.New(3)
	n.Add("t1", "g")
	d := breakpoint.NewDescription(3, 2)
	if _, err := NewAbstract(n, map[model.TxnID]int{"t1": 2}, map[model.TxnID]*breakpoint.Description{}); err == nil {
		t.Error("missing description must error")
	}
	if _, err := NewAbstract(n, map[model.TxnID]int{"t1": 3}, map[model.TxnID]*breakpoint.Description{"t1": d}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := NewAbstract(n, map[model.TxnID]int{"t2": 2}, map[model.TxnID]*breakpoint.Description{"t2": d}); err == nil {
		t.Error("transaction missing from nest must error")
	}
	wrongK := breakpoint.NewDescription(2, 2)
	if _, err := NewAbstract(n, map[model.TxnID]int{"t1": 2}, map[model.TxnID]*breakpoint.Description{"t1": wrongK}); err == nil {
		t.Error("k mismatch must error")
	}
	if _, err := NewAbstract(n, map[model.TxnID]int{"t1": 2}, map[model.TxnID]*breakpoint.Description{"t1": d}); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestIsCoherentTotalOrderRejectsMalformed(t *testing.T) {
	inst := paperInstance(t)
	if inst.IsCoherentTotalOrder([]int{0, 1}) {
		t.Error("short permutation accepted")
	}
	perm := make([]int, inst.N())
	for i := range perm {
		perm[i] = 0 // duplicates
	}
	if inst.IsCoherentTotalOrder(perm) {
		t.Error("duplicate permutation accepted")
	}
	// Reversed program order.
	var rev []int
	for _, txn := range []model.TxnID{"t1", "t2", "t3"} {
		for s := 4; s >= 1; s-- {
			rev = append(rev, idx(t, inst, txn, s))
		}
	}
	if inst.IsCoherentTotalOrder(rev) {
		t.Error("reversed program order accepted")
	}
}

func TestEmptyInstance(t *testing.T) {
	n := nest.New(2)
	n.Add("t")
	inst, err := NewAbstract(n, map[model.TxnID]int{"t": 0}, map[model.TxnID]*breakpoint.Description{
		"t": breakpoint.NewDescription(2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := inst.Closure(nil)
	perm, err := rel.ExtendTotal()
	if err != nil || len(perm) != 0 {
		t.Fatalf("empty extension: %v %v", perm, err)
	}
	if !rel.Total() {
		t.Error("the empty relation is vacuously total")
	}
}

// Add extends the relation with additional edges, re-closing it.
func (r *Relation) Add(edges [][2]int) { r.close(edges) }

// HasID reports whether (α,β) ∈ R for step identities; unknown steps are
// unrelated.
func (r *Relation) HasID(a, b model.StepID) bool {
	ga, ok1 := r.inst.Index(a.Txn, a.Seq)
	gb, ok2 := r.inst.Index(b.Txn, b.Seq)
	if !ok1 || !ok2 {
		return false
	}
	return r.reach[ga].has(gb)
}

// Comparable reports whether a and b are ordered either way.
func (r *Relation) Comparable(a, b int) bool {
	return a == b || r.reach[a].has(b) || r.reach[b].has(a)
}
