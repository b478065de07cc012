// Package model defines the formal objects of Lynch's application-database
// model (Section 3 of the paper): entities (shared variables), transactions
// (deterministic automata whose atomic steps each access one entity), and
// executions (totally ordered sequences of steps), together with the
// dependency partial order ≤e and execution equivalence.
//
// A step is an arbitrary atomic read-modify-write access: the transaction
// observes the entity's current value, may update its local state, and
// writes a (possibly unchanged) value back. Reads and writes are the obvious
// special cases. Because every step both observes and writes its entity, any
// two steps on the same entity conflict, which is what the paper's
// dependency relation assumes.
package model

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// EntityID names a database entity (the paper's "variable").
type EntityID string

// TxnID names a transaction (the paper's "process").
type TxnID string

// Value is the contents of an entity. All applications in this repository
// (bank balances, CAD plan versions, synthetic counters) use integers.
type Value int64

// StepID identifies a step as the Seq-th step (1-based) of transaction Txn.
// The paper formalizes steps of an execution of t as pairs (i, a_i); StepID
// is exactly that pair.
type StepID struct {
	Txn TxnID
	Seq int
}

func (s StepID) String() string { return fmt.Sprintf("%s[%d]", s.Txn, s.Seq) }

// Step is one atomic access in a recorded execution.
type Step struct {
	Txn    TxnID    // transaction performing the step
	Seq    int      // 1-based index of this step within its transaction
	Entity EntityID // entity accessed
	Label  string   // human-readable operation name ("withdraw", "read", …)
	Before Value    // entity value observed by the step
	After  Value    // entity value written by the step
}

// ID returns the step's identity.
func (s Step) ID() StepID { return StepID{s.Txn, s.Seq} }

func (s Step) String() string {
	return fmt.Sprintf("%s[%d]:%s(%s)%d->%d", s.Txn, s.Seq, s.Label, s.Entity, s.Before, s.After)
}

// Execution is a finite totally ordered set of steps: the order of the slice
// is the order of the execution.
type Execution []Step

// Txns returns the distinct transactions appearing in e, in order of first
// appearance.
func (e Execution) Txns() []TxnID {
	seen := make(map[TxnID]bool)
	var out []TxnID
	for _, s := range e {
		if !seen[s.Txn] {
			seen[s.Txn] = true
			out = append(out, s.Txn)
		}
	}
	return out
}

// ByEntity returns, for each entity, the global indices of the steps that
// access it, in execution order.
func (e Execution) ByEntity() map[EntityID][]int {
	m := make(map[EntityID][]int)
	for i, s := range e {
		m[s.Entity] = append(m[s.Entity], i)
	}
	return m
}

// Validate checks the consistency requirements of Section 3.1: within each
// transaction the Seq numbers run 1,2,3,… in execution order, and each step
// accessing an entity observes the value written by the previous step on
// that entity (initial values are supplied by init; entities absent from
// init start at 0).
func (e Execution) Validate(init map[EntityID]Value) error {
	seq := make(map[TxnID]int)
	val := make(map[EntityID]Value)
	for x, v := range init {
		val[x] = v
	}
	for i, s := range e {
		if s.Seq != seq[s.Txn]+1 {
			return fmt.Errorf("step %d (%s): want seq %d, got %d", i, s, seq[s.Txn]+1, s.Seq)
		}
		seq[s.Txn] = s.Seq
		if cur := val[s.Entity]; cur != s.Before {
			return fmt.Errorf("step %d (%s): entity %s holds %d, step observed %d", i, s, s.Entity, cur, s.Before)
		}
		val[s.Entity] = s.After
	}
	return nil
}

// DependencyEdges returns the generator edges of the dependency partial
// order ≤e as pairs of global indices (i, j) with i < j: consecutive steps
// of the same transaction and consecutive accesses to the same entity. The
// transitive closure of these edges is exactly ≤e, because "same
// transaction" and "same entity" pairs chain through the consecutive ones.
func (e Execution) DependencyEdges() [][2]int {
	var edges [][2]int
	lastTxn := make(map[TxnID]int)
	lastEnt := make(map[EntityID]int)
	for i, s := range e {
		if j, ok := lastTxn[s.Txn]; ok {
			edges = append(edges, [2]int{j, i})
		}
		lastTxn[s.Txn] = i
		if j, ok := lastEnt[s.Entity]; ok {
			edges = append(edges, [2]int{j, i})
		}
		lastEnt[s.Entity] = i
	}
	return edges
}

// SameSteps reports whether e and f consist of exactly the same steps
// (identified by StepID, with equal entity/label/values), possibly in a
// different order.
func (e Execution) SameSteps(f Execution) bool {
	if len(e) != len(f) {
		return false
	}
	m := make(map[StepID]Step, len(e))
	for _, s := range e {
		m[s.ID()] = s
	}
	for _, s := range f {
		t, ok := m[s.ID()]
		if !ok || t != s {
			return false
		}
	}
	return true
}

// Equivalent reports whether e and f are equivalent executions in the sense
// of Section 3.1: they contain the same steps and induce the identical
// dependency relation ≤e. Because both are total orders over the same steps,
// this holds exactly when every pair of steps that share a transaction or an
// entity appears in the same relative order in both.
func (e Execution) Equivalent(f Execution) bool {
	if !e.SameSteps(f) {
		return false
	}
	pos := make(map[StepID]int, len(f))
	for i, s := range f {
		pos[s.ID()] = i
	}
	check := func(groups map[string][]int) bool {
		for _, idxs := range groups {
			for a := 0; a < len(idxs); a++ {
				for b := a + 1; b < len(idxs); b++ {
					if pos[e[idxs[a]].ID()] > pos[e[idxs[b]].ID()] {
						return false
					}
				}
			}
		}
		return true
	}
	byTxn := make(map[string][]int)
	for i, s := range e {
		byTxn["t:"+string(s.Txn)] = append(byTxn["t:"+string(s.Txn)], i)
	}
	byEnt := make(map[string][]int)
	for i, s := range e {
		byEnt["x:"+string(s.Entity)] = append(byEnt["x:"+string(s.Entity)], i)
	}
	return check(byTxn) && check(byEnt)
}

// SortTxnIDs sorts transaction IDs ascending.
func SortTxnIDs(ids []TxnID) { slices.Sort(ids) }

// SortedKeys returns m's keys ascending: the deterministic iteration order
// for anything that sends messages or makes decisions off a map.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Program is a deterministic transaction automaton. A fresh run starts from
// Init; each state names the entity it accesses next, and Apply consumes the
// observed value, producing the value to write, a label for the step, and
// the successor state. Conditional branching (the paper's transfer t1, whose
// later accesses depend on the balances it encounters) is expressed by
// returning different successor states for different observed values.
type Program interface {
	ID() TxnID
	Init() ProgState
}

// ProgState is one local state of a transaction automaton. A driver may
// keep the states a run returns and step an earlier one again: the
// simulator's partial rollback resumes from the state before the first
// undone step. So a returned state never changes, and an earlier state may
// be stepped again; doing so abandons the states that followed it, whose
// storage the implementation may then reuse. Each Init starts a run of its
// own, sharing nothing with another.
type ProgState interface {
	// Next returns the entity the transaction accesses from this state.
	// ok=false means the state is final: the transaction has finished.
	Next() (EntityID, bool)
	// Apply performs the access on observed value v, returning the value to
	// write back, the step label, and the successor state.
	Apply(v Value) (write Value, label string, next ProgState)
}

// RunSerial executes the programs one after another against vals (mutated in
// place), returning the serial execution. It is the reference semantics used
// by tests and by witness validation.
func RunSerial(programs []Program, vals map[EntityID]Value) (Execution, error) {
	var e Execution
	for _, p := range programs {
		st := p.Init()
		seq := 0
		for {
			x, ok := st.Next()
			if !ok {
				break
			}
			seq++
			if seq > 1<<20 {
				return nil, fmt.Errorf("transaction %s exceeded step limit", p.ID())
			}
			before := vals[x]
			after, label, next := st.Apply(before)
			vals[x] = after
			e = append(e, Step{Txn: p.ID(), Seq: seq, Entity: x, Label: label, Before: before, After: after})
			st = next
		}
	}
	return e, nil
}

// RandomInterleave executes all programs to completion against vals
// (mutated in place), choosing the next transaction uniformly at random
// among the unfinished ones. Unlike Interleave it handles branching
// programs, whose step counts are not known in advance.
func RandomInterleave(programs []Program, vals map[EntityID]Value, rng *rand.Rand) (Execution, error) {
	states := make([]ProgState, len(programs))
	seqs := make([]int, len(programs))
	var live []int
	for i, p := range programs {
		states[i] = p.Init()
		if _, ok := states[i].Next(); ok {
			live = append(live, i)
		}
	}
	var e Execution
	for len(live) > 0 {
		li := rng.Intn(len(live))
		pi := live[li]
		x, ok := states[pi].Next()
		if !ok {
			return nil, fmt.Errorf("live transaction %s has no next step", programs[pi].ID())
		}
		seqs[pi]++
		if seqs[pi] > 1<<20 {
			return nil, fmt.Errorf("transaction %s exceeded step limit", programs[pi].ID())
		}
		before := vals[x]
		after, label, next := states[pi].Apply(before)
		vals[x] = after
		e = append(e, Step{Txn: programs[pi].ID(), Seq: seqs[pi], Entity: x, Label: label, Before: before, After: after})
		states[pi] = next
		if _, ok := next.Next(); !ok {
			live = append(live[:li], live[li+1:]...)
		}
	}
	return e, nil
}

// Interleave replays the programs against vals (mutated in place) in the
// step order given by order: order[i] is the index into programs of the
// transaction performing the i-th global step. It returns an error if some
// transaction is asked to step after finishing or has steps remaining when
// order is exhausted (incomplete executions are permitted when allowPartial
// is true — the paper drops the fairness assumption of [LF]).
func Interleave(programs []Program, vals map[EntityID]Value, order []int, allowPartial bool) (Execution, error) {
	states := make([]ProgState, len(programs))
	seqs := make([]int, len(programs))
	for i, p := range programs {
		states[i] = p.Init()
	}
	var e Execution
	for _, pi := range order {
		if pi < 0 || pi >= len(programs) {
			return nil, fmt.Errorf("order names program %d, have %d", pi, len(programs))
		}
		x, ok := states[pi].Next()
		if !ok {
			return nil, fmt.Errorf("transaction %s stepped after finishing", programs[pi].ID())
		}
		seqs[pi]++
		before := vals[x]
		after, label, next := states[pi].Apply(before)
		vals[x] = after
		e = append(e, Step{Txn: programs[pi].ID(), Seq: seqs[pi], Entity: x, Label: label, Before: before, After: after})
		states[pi] = next
	}
	if !allowPartial {
		for i, st := range states {
			if _, ok := st.Next(); ok {
				return nil, fmt.Errorf("transaction %s has steps remaining", programs[i].ID())
			}
		}
	}
	return e, nil
}
