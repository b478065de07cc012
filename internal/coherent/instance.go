// Package coherent implements the combinatorial core of the paper: the
// coherence condition on relations over transaction steps (Section 4.2), the
// coherent closure, cycle detection, the stage-wise extension of a coherent
// partial order to a coherent total order (Lemma 1 and its Appendix proof),
// and the correctability characterization (Theorem 2).
package coherent

import (
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// Instance is a k-level interleaving specification (Section 4.2): a set of
// transactions, each with a totally ordered set of steps and a k-level
// breakpoint description, plus the k-nest relating the transactions. Steps
// are addressed by a dense global index 0..N-1; within a transaction the
// global indices respect the <t order.
type Instance struct {
	nest   *nest.Nest
	txns   []model.TxnID
	txnIdx map[model.TxnID]int

	ids   []model.StepID // global index -> identity
	txnOf []int          // global index -> transaction index
	seqOf []int          // global index -> 1-based position within transaction

	stepsOf [][]int                   // transaction index -> global indices in <t order
	desc    []*breakpoint.Description // transaction index -> breakpoint description

	level [][]int // cached level(t,t') matrix
}

// NewAbstract builds an instance directly from step counts and breakpoint
// descriptions, without any recorded execution. It is the form used by the
// paper's abstract Subsection 4.2 examples and by property tests. counts and
// descs must have identical key sets, each description's length must match
// the count, and every transaction must be registered in n.
func NewAbstract(n *nest.Nest, counts map[model.TxnID]int, descs map[model.TxnID]*breakpoint.Description) (*Instance, error) {
	txns := make([]model.TxnID, 0, len(counts))
	for t := range counts {
		txns = append(txns, t)
	}
	model.SortTxnIDs(txns)

	inst := &Instance{nest: n, txnIdx: make(map[model.TxnID]int)}
	for _, t := range txns {
		d, ok := descs[t]
		if !ok {
			return nil, fmt.Errorf("coherent: no breakpoint description for %s", t)
		}
		if d.Len() != counts[t] {
			return nil, fmt.Errorf("coherent: %s has %d steps but description covers %d", t, counts[t], d.Len())
		}
		if d.K() != n.K() {
			return nil, fmt.Errorf("coherent: %s description has k=%d, nest has k=%d", t, d.K(), n.K())
		}
		if !n.Has(t) {
			return nil, fmt.Errorf("coherent: transaction %s not in nest", t)
		}
		ti := len(inst.txns)
		inst.txns = append(inst.txns, t)
		inst.txnIdx[t] = ti
		inst.desc = append(inst.desc, d)
		var idxs []int
		for s := 1; s <= counts[t]; s++ {
			g := len(inst.ids)
			inst.ids = append(inst.ids, model.StepID{Txn: t, Seq: s})
			inst.txnOf = append(inst.txnOf, ti)
			inst.seqOf = append(inst.seqOf, s)
			idxs = append(idxs, g)
		}
		inst.stepsOf = append(inst.stepsOf, idxs)
	}
	inst.buildLevels()
	return inst, nil
}

// FromExecution builds the instance Σ(B,e) derived from an execution
// (Section 4.3): the transactions appearing in e, their step subsequences in
// e-order, and the breakpoint descriptions the specification assigns to
// those subsequences. The returned order slice maps each position of e to
// its global step index, so callers can translate e's total order into
// relation edges.
func FromExecution(e model.Execution, n *nest.Nest, spec breakpoint.Spec) (*Instance, []int, error) {
	if spec.K() != n.K() {
		return nil, nil, fmt.Errorf("coherent: spec has k=%d, nest has k=%d", spec.K(), n.K())
	}
	counts := make(map[model.TxnID]int)
	perTxn := make(map[model.TxnID][]model.Step)
	for _, s := range e {
		counts[s.Txn]++
		perTxn[s.Txn] = append(perTxn[s.Txn], s)
	}
	descs := make(map[model.TxnID]*breakpoint.Description, len(counts))
	for t, steps := range perTxn {
		descs[t] = breakpoint.Describe(spec, t, steps)
	}
	inst, err := NewAbstract(n, counts, descs)
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, len(e))
	seen := make(map[model.TxnID]int)
	for i, s := range e {
		seen[s.Txn]++
		if s.Seq != seen[s.Txn] {
			return nil, nil, fmt.Errorf("coherent: execution step %d (%s) out of sequence", i, s)
		}
		g, ok := inst.Index(s.Txn, s.Seq)
		if !ok {
			return nil, nil, fmt.Errorf("coherent: no index for %s", s.ID())
		}
		order[i] = g
	}
	return inst, order, nil
}

func (inst *Instance) buildLevels() {
	tn := len(inst.txns)
	inst.level = make([][]int, tn)
	for i := range inst.level {
		inst.level[i] = make([]int, tn)
		for j := range inst.level[i] {
			inst.level[i][j] = inst.nest.Level(inst.txns[i], inst.txns[j])
		}
	}
}

// N returns the total number of steps.
func (inst *Instance) N() int { return len(inst.ids) }

// K returns the number of levels.
func (inst *Instance) K() int { return inst.nest.K() }

// ID returns the identity of the step at global index g.
func (inst *Instance) ID(g int) model.StepID { return inst.ids[g] }

// Index returns the global index of the seq-th step of t.
func (inst *Instance) Index(t model.TxnID, seq int) (int, bool) {
	ti, ok := inst.txnIdx[t]
	if !ok {
		return 0, false
	}
	if seq < 1 || seq > len(inst.stepsOf[ti]) {
		return 0, false
	}
	return inst.stepsOf[ti][seq-1], true
}

// programEdges returns the generator edges of the <t orders: consecutive
// steps of each transaction.
func (inst *Instance) programEdges() [][2]int {
	var out [][2]int
	for _, idxs := range inst.stepsOf {
		for i := 1; i < len(idxs); i++ {
			out = append(out, [2]int{idxs[i-1], idxs[i]})
		}
	}
	return out
}
