// Package mla implements multilevel atomicity, the correctness criterion
// for database concurrency control introduced by Nancy Lynch (PODS 1982,
// MIT/LCS/TR-281). It weakens classical serializability by permitting
// controlled interleaving among transactions: transactions are grouped in
// a k-level nest of classes, and each transaction exposes per-level
// breakpoints at which more closely related transactions may interleave.
//
// The package is the library façade:
//
//   - Spec pairs a Nest (who may interleave with whom) with a breakpoint
//     specification (where). Spec.Atomic tests membership in C(π,B),
//     Spec.Correctable applies the Theorem 2 characterization (the coherent
//     closure of the dependency relation is a partial order), and
//     Spec.Witness constructs an equivalent multilevel atomic execution via
//     the Lemma 1 stage-wise extension.
//   - Serializability and CompatibilitySets build the paper's two named
//     special cases (k=2, and Garcia-Molina's k=3 scheme).
//
// Deeper machinery lives in the internal packages: internal/coherent (the
// combinatorial core), internal/sched (the Section 6 concurrency
// controls), internal/sim (the migrating-transaction simulator),
// internal/bank and internal/cad (the paper's two running applications),
// and internal/nested (the Section 7 action-tree correspondence).
package mla

import (
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/viz"
)

// Core model types.
type (
	// EntityID names a database entity.
	EntityID = model.EntityID
	// TxnID names a transaction.
	TxnID = model.TxnID
	// Value is an entity's contents.
	Value = model.Value
	// Step is one atomic entity access in an execution.
	Step = model.Step
	// Execution is a totally ordered sequence of steps.
	Execution = model.Execution
	// Program is a deterministic transaction automaton.
	Program = model.Program
	// Nest is a k-nest of transaction classes.
	Nest = nest.Nest
	// BreakpointSpec supplies per-execution breakpoint descriptions.
	BreakpointSpec = breakpoint.Spec
)

// Spec is a complete multilevel-atomicity specification: who may interleave
// with whom (the nest) and where (the breakpoints).
type Spec struct {
	Nest        *Nest
	Breakpoints BreakpointSpec
}

// NewSpec pairs a nest with a breakpoint specification, checking that they
// agree on the number of levels.
func NewSpec(n *Nest, bp BreakpointSpec) (*Spec, error) {
	if n.K() != bp.K() {
		return nil, fmt.Errorf("mla: nest has k=%d but breakpoint spec has k=%d", n.K(), bp.K())
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &Spec{Nest: n, Breakpoints: bp}, nil
}

// K returns the number of atomicity levels.
func (s *Spec) K() int { return s.Nest.K() }

// Check runs the full Theorem 2 analysis on an execution.
func (s *Spec) Check(e Execution) (*CheckResult, error) {
	return coherent.CheckExecution(e, s.Nest, s.Breakpoints)
}

// Atomic reports whether e ∈ C(π,B): the execution is multilevel atomic as
// recorded, with no reordering.
func (s *Spec) Atomic(e Execution) (bool, error) {
	return coherent.MultilevelAtomic(e, s.Nest, s.Breakpoints)
}

// Correctable reports whether e is equivalent to some multilevel atomic
// execution (Theorem 2: the coherent closure of ≤e is a partial order).
func (s *Spec) Correctable(e Execution) (bool, error) {
	return coherent.Correctable(e, s.Nest, s.Breakpoints)
}

// Witness returns an equivalent multilevel atomic execution when e is
// correctable.
func (s *Spec) Witness(e Execution) (Execution, bool, error) {
	res, err := s.Check(e)
	if err != nil {
		return nil, false, err
	}
	w, ok := res.Witness()
	return w, ok, nil
}

// Program-building helpers.
type (
	// Op is one scripted access (see Read, Write, Add).
	Op = model.Op
	// Scripted is a straight-line transaction program.
	Scripted = model.Scripted
	// ProgState is one state of a transaction automaton; implement Program
	// directly for branching transactions.
	ProgState = model.ProgState
	// CheckResult is the full Theorem 2 analysis of an execution.
	CheckResult = coherent.Result
)

// Read returns an op that reads x and writes it back unchanged.
func Read(x EntityID) Op { return model.Read(x) }

// Write returns an op that overwrites x with v.
func Write(x EntityID, v Value) Op { return model.Write(x, v) }

// Add returns an op that adds d to x.
func Add(x EntityID, d Value) Op { return model.Add(x, d) }

// RunSerial executes the programs one after another against vals (mutated
// in place), returning the serial execution — the reference semantics.
func RunSerial(programs []Program, vals map[EntityID]Value) (Execution, error) {
	return model.RunSerial(programs, vals)
}

// Interleave replays the programs in the given merge order (order[i] is the
// index of the program performing the i-th global step).
func Interleave(programs []Program, vals map[EntityID]Value, order []int) (Execution, error) {
	return model.Interleave(programs, vals, order, false)
}

// Timeline renders an execution as one lane per transaction with breakpoint
// markers; spec may be nil. width 0 renders every step.
func Timeline(e Execution, spec BreakpointSpec, width int) string {
	return viz.Timeline(e, spec, viz.Options{Width: width})
}

// NewNest creates an empty k-nest (k ≥ 2).
func NewNest(k int) *Nest { return nest.New(k) }

// Serializability returns the k=2 specification over the given
// transactions: one universal class, singleton bottom classes, and the
// unique 2-level breakpoint description. Under this Spec, Correctable
// coincides with classical serializability (Section 4.3, first example).
func Serializability(txns []TxnID) *Spec {
	n := nest.New(2)
	for _, t := range txns {
		n.Add(t)
	}
	return &Spec{Nest: n, Breakpoints: Uniform(2, 2)}
}

// CompatibilitySets returns Garcia-Molina's two-level scheme [G] as the k=3
// special case of multilevel atomicity (Section 4.3, second example):
// transactions within one compatibility class interleave arbitrarily
// (every interior boundary is a level-2 breakpoint), while transactions in
// different classes must be atomic with respect to each other.
func CompatibilitySets(classes [][]TxnID) *Spec {
	n := nest.New(3)
	for ci, class := range classes {
		for _, t := range class {
			n.Add(t, fmt.Sprintf("class-%d", ci))
		}
	}
	return &Spec{Nest: n, Breakpoints: Uniform(3, 2)}
}

// Uniform is a breakpoint specification giving every interior boundary the
// same coarseness.
func Uniform(levels, coarseness int) BreakpointSpec {
	return breakpoint.Uniform{Levels: levels, C: coarseness}
}

// BreakpointFunc adapts a closure to a breakpoint specification: fn returns
// the coarseness (2..levels) of the boundary after the given prefix.
func BreakpointFunc(levels int, fn func(t TxnID, prefix []Step) int) BreakpointSpec {
	return breakpoint.Func{Levels: levels, Fn: fn}
}
