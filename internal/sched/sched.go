// Package sched implements the concurrency controls discussed in Section 6
// of the paper, behind the one Control interface both executors drive:
//
//   - Preventer: the paper's cycle-prevention sketch — steps are delayed
//     until every closure-predecessor transaction has passed a breakpoint of
//     the appropriate level, so the coherent closure of the performed
//     execution is consistent with real time and hence a partial order.
//   - Detector: the paper's cycle-detection sketch — steps run optimistically
//     while the coherent closure of ≤e is maintained online; a cycle triggers
//     priority-based rollback.
//   - TwoPhase: strict two-phase locking [EGLT], the serializability
//     baseline; deadlocks are resolved by a waits-for graph and a youngest
//     victim, as in the Preventer.
//   - ShardedTwoPhase: strict two-phase locking with wound-wait over a
//     striped lock table, the concurrent engine's scalable control.
//   - Timestamp: basic timestamp ordering [L], the second baseline.
//   - Serial: one transaction at a time (the throughput floor).
//   - None: no control at all (the chaos ceiling; used to show why the
//     banking invariants need concurrency control).
//
// The simulator (internal/sim) and the concurrent engine (internal/engine)
// call Request before each step; a granted request is performed at once
// and acknowledged with Performed, which also reports the coarseness of the
// breakpoint following the step. The executor closes abort sets under value
// dependencies before calling Aborted, and re-offers waiting requests after
// every state change.
package sched

import (
	"mla/internal/model"
)

// Kind classifies a control's decision.
type Kind int

const (
	// Grant allows the step to perform now.
	Grant Kind = iota
	// Wait blocks the step; the simulator retries after the next state
	// change and resolves stalls by aborting the youngest waiter.
	Wait
	// Abort demands that Victims be rolled back before the request is
	// retried. Victims may or may not include the requester.
	Abort
)

func (k Kind) String() string {
	switch k {
	case Grant:
		return "grant"
	case Wait:
		return "wait"
	case Abort:
		return "abort"
	}
	return "unknown"
}

// Decision is a control's answer to a Request.
type Decision struct {
	Kind    Kind
	Victims []model.TxnID // for Abort: transactions to roll back
}

var grant = Decision{Kind: Grant}
var wait = Decision{Kind: Wait}

// Control is a pluggable concurrency control.
type Control interface {
	// Name identifies the control in reports.
	Name() string
	// Begin announces that transaction t (re)starts with the given
	// priority; smaller priorities are older and win conflicts.
	Begin(t model.TxnID, prio int64)
	// Request asks whether t may perform its seq-th step on entity x now.
	Request(t model.TxnID, seq int, x model.EntityID) Decision
	// Performed confirms the granted step executed. cut is the coarseness
	// (2..k) of the breakpoint following the step, or 0 when the step is
	// the transaction's last.
	Performed(t model.TxnID, seq int, x model.EntityID, cut int)
	// Finished announces that t completed all its steps.
	Finished(t model.TxnID)
	// Aborted announces that the victims were rolled back entirely (the
	// set is closed under value dependencies). A victim may Begin again.
	Aborted(victims []model.TxnID)
	// Stats returns the control's counters.
	Stats() *Stats
}

// Ticker is implemented by controls that track simulated time. The
// simulator calls Tick with the current time before dispatching each event,
// and additionally at every instant a Waker asked for.
//
// Ticker, Waker, AsyncAborter and the hooks in capabilities.go are how a
// control DECLARES an optional capability; harnesses discover them all at
// once through CapabilitiesOf instead of scattered type assertions.
type Ticker interface {
	Tick(now int64)
}

// Waker is implemented by controls that need Tick calls even when no
// workload event is scheduled — message deliveries, retransmission timers,
// heartbeats. NextWake returns the earliest future instant the control
// wants a Tick, or 0 for none; the simulator schedules a synthetic event
// there and re-offers waiting requests afterwards.
type Waker interface {
	NextWake(now int64) int64
}

// AsyncAborter is implemented by controls that decide aborts outside
// Request — probe-based deadlock detection, failure-detector escalation.
// The harness drains TakeVictims after every Tick and rolls the victims
// back through the normal dependency-closed Aborted path.
type AsyncAborter interface {
	TakeVictims() []model.TxnID
}

// Stats counts the decisions only the control can see. What the executor
// already counts — its Request calls, the steps it performs, the rollbacks
// it applies and their causes — it counts itself (engine.Counts,
// sim.Stats), so a control keeps no copy of those:
//
//   - Waits counts Request calls answered Wait (the simulator has no wait
//     count of its own).
//   - Wounds counts Abort decisions naming a victim other than the
//     requester, incremented in Request at decision time.
//   - Cycles counts dependency cycles detected (Detector only).
//   - Sealed counts committed transactions whose state the control
//     reclaimed (the closure controls, through the Retirer capability): on
//     a resident control Sealed trails commits by the transactions still
//     anchored behind an uncommitted closure-predecessor.
type Stats struct {
	Waits  int
	Wounds int // abort decisions naming a non-requester victim (in Request)
	Cycles int // dependency cycles detected (Detector only)
	Sealed int // committed transactions reclaimed from the closure (Retirer)
}

// Snapshot returns a value copy of the counters. The pointer returned by
// Control.Stats() aliases live state on the serial controls (it keeps
// counting as the run proceeds); Snapshot is the uniform way to freeze a
// point-in-time reading — like every Snapshot() in this codebase (lock,
// wal, net), the returned struct never aliases live state, stays valid
// forever, and mutating it has no effect on the control.
func (s *Stats) Snapshot() Stats { return *s }

// None grants everything: no concurrency control. It exists to demonstrate
// which invariants break without one.
type None struct{ stats Stats }

// NewNone returns the no-op control.
func NewNone() *None { return &None{} }

// Name implements Control.
func (*None) Name() string { return "none" }

// Begin implements Control.
func (*None) Begin(model.TxnID, int64) {}

// Request implements Control.
func (*None) Request(model.TxnID, int, model.EntityID) Decision { return grant }

// Performed implements Control.
func (*None) Performed(model.TxnID, int, model.EntityID, int) {}

// Finished implements Control.
func (*None) Finished(model.TxnID) {}

// Aborted implements Control: None keeps no state to roll back.
func (*None) Aborted([]model.TxnID) {}

// DeadlineAborted implements the DeadlineAborter capability.
func (*None) DeadlineAborted(model.TxnID) {}

// Stats implements Control.
func (n *None) Stats() *Stats { return &n.stats }

// Serial runs one transaction at a time: a step is granted only when its
// transaction holds the single global token. It is the trivially correct
// throughput floor.
type Serial struct {
	holder model.TxnID
	stats  Stats
}

// NewSerial returns the one-at-a-time control.
func NewSerial() *Serial { return &Serial{} }

// Name implements Control.
func (*Serial) Name() string { return "serial" }

// Begin implements Control.
func (*Serial) Begin(model.TxnID, int64) {}

// Request implements Control.
func (s *Serial) Request(t model.TxnID, _ int, _ model.EntityID) Decision {
	if s.holder == "" || s.holder == t {
		s.holder = t
		return grant
	}
	s.stats.Waits++
	return wait
}

// Performed implements Control.
func (*Serial) Performed(model.TxnID, int, model.EntityID, int) {}

// Finished implements Control.
func (s *Serial) Finished(t model.TxnID) {
	if s.holder == t {
		s.holder = ""
	}
}

// Aborted implements Control.
func (s *Serial) Aborted(victims []model.TxnID) {
	for _, t := range victims {
		if s.holder == t {
			s.holder = ""
		}
	}
}

// DeadlineAborted implements the DeadlineAborter capability.
func (*Serial) DeadlineAborted(model.TxnID) {}

// Stats implements Control.
func (s *Serial) Stats() *Stats { return &s.stats }
