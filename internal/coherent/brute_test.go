package coherent

import (
	"fmt"
	"math/rand"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// TestBruteForceCrossValidation is the strongest correctness evidence for
// the Theorem 2 implementation: on hundreds of small random instances, the
// closure-based verdict must agree with an exhaustive search for a coherent
// total order containing ≤e. The two algorithms share no logic beyond
// IsCoherentTotalOrder (which the abstract paper-example tests pin down
// independently).
func TestBruteForceCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	agree, correctableSeen, rejectedSeen := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(3)
		nTxn := 2 + rng.Intn(2) // 2..3 transactions
		stepsPer := 2 + rng.Intn(3)
		nEnt := 1 + rng.Intn(3)

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
				mid[l] = fmt.Sprintf("c%d", rng.Intn(2))
			}
			n.Add(id, mid...)
		}
		cutSeed := rng.Int63()
		spec := breakpoint.Func{Levels: k, Fn: func(tx model.TxnID, prefix []model.Step) int {
			h := cutSeed
			for _, c := range tx {
				h = h*31 + int64(c)
			}
			h = h*31 + int64(len(prefix))
			if h < 0 {
				h = -h
			}
			return 2 + int(h)%(k-1)
		}}

		e, err := model.RandomInterleave(progs, map[model.EntityID]model.Value{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		inst, order, err := FromExecution(e, n, spec)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Correctable(e, n, spec)
		if err != nil {
			t.Fatal(err)
		}
		slow, valid := BruteCorrectable(e, inst, order)
		if !valid {
			continue
		}
		if fast != slow {
			t.Fatalf("trial %d: closure says %v, brute force says %v\nexecution: %v",
				trial, fast, slow, e)
		}
		agree++
		if fast {
			correctableSeen++
		} else {
			rejectedSeen++
		}
	}
	if correctableSeen == 0 || rejectedSeen == 0 {
		t.Fatalf("unbalanced sample: %d correctable, %d rejected of %d", correctableSeen, rejectedSeen, agree)
	}
	t.Logf("cross-validated %d instances (%d correctable, %d rejected)", agree, correctableSeen, rejectedSeen)
}

func TestBruteGuards(t *testing.T) {
	// Too-large instances are refused rather than searched.
	n := nest.New(2)
	var e model.Execution
	for i := 0; i < 13; i++ {
		id := model.TxnID(fmt.Sprintf("t%d", i))
		n.Add(id)
		e = append(e, model.Step{Txn: id, Seq: 1, Entity: "x"})
	}
	inst, order, err := FromExecution(e, n, breakpoint.Uniform{Levels: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, valid := BruteCorrectable(e, inst, order); valid {
		t.Error("oversized instance should be refused")
	}
}

// BruteCorrectable decides correctability by exhaustive search: it looks
// for a coherent total order of the instance's steps that contains the
// dependency relation ≤e of the execution. This is the definition applied
// literally — exponential in the number of steps — and exists purely to
// cross-validate the Theorem 2 closure test on small instances (see the
// property tests). maxSteps guards against accidental blow-ups; executions
// longer than that return ok=false, valid=false.
func BruteCorrectable(e model.Execution, inst *Instance, order []int) (ok, valid bool) {
	n := inst.N()
	if n > 12 {
		return false, false
	}
	// ≤e generator edges in global-index space.
	succ := make([][]int, n)
	pred := make([][]int, n)
	for _, pe := range e.DependencyEdges() {
		a, b := order[pe[0]], order[pe[1]]
		succ[a] = append(succ[a], b)
		pred[b] = append(pred[b], a)
	}

	placed := make([]int, 0, n)
	posOf := make([]int, n)
	for i := range posOf {
		posOf[i] = -1
	}
	nextSeq := make([]int, len(inst.txns)) // steps of each txn placed so far

	var search func() bool
	search = func() bool {
		if len(placed) == n {
			return inst.IsCoherentTotalOrder(placed)
		}
		for ti := range inst.txns {
			if nextSeq[ti] >= len(inst.stepsOf[ti]) {
				continue
			}
			g := inst.stepsOf[ti][nextSeq[ti]]
			// All ≤e predecessors must already be placed.
			ready := true
			for _, p := range pred[g] {
				if posOf[p] < 0 {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			// Coherence pruning: placing g must not interrupt another
			// transaction inside a protected segment.
			legal := true
			for tj := range inst.txns {
				if tj == ti {
					continue
				}
				pl := nextSeq[tj]
				if pl == 0 || pl == len(inst.stepsOf[tj]) {
					continue
				}
				lv := inst.level[tj][ti]
				if inst.desc[tj].SameSegment(pl, pl+1, lv) {
					legal = false
					break
				}
			}
			if !legal {
				continue
			}
			posOf[g] = len(placed)
			placed = append(placed, g)
			nextSeq[ti]++
			if search() {
				return true
			}
			nextSeq[ti]--
			placed = placed[:len(placed)-1]
			posOf[g] = -1
		}
		return false
	}
	return search(), true
}
