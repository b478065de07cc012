package sched

import (
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// RestartPrioritizer is implemented by controls that need a transaction's
// priority recomputed when it restarts after an abort. Timestamp ordering
// takes the fresh (larger) timestamp — its aborts exist precisely because
// the old one aged out — while wound-wait controls keep the original so
// aged transactions eventually win.
type RestartPrioritizer interface {
	NewPriority(t model.TxnID, old, fresh int64) int64
}

// PartialAborter is implemented by controls that can clamp their
// bookkeeping for t to a kept step prefix instead of a full rollback.
type PartialAborter interface {
	AbortedTo(t model.TxnID, keep int)
}

// Retirer is implemented by controls that want to know when a finished
// transaction committed, so retained per-transaction state can be freed.
type Retirer interface {
	Retired(t model.TxnID)
}

// Concurrent marks a control whose Begin/Request/Performed/Finished/
// Aborted methods are safe to call from multiple goroutines without an
// external mutex. The engine serializes calls to every other control
// behind its global lock; a Concurrent control is invoked on the reduced
// per-entity critical sections instead.
type Concurrent interface {
	ConcurrentSafe()
}

// StepQuiescent marks a control for which a performed step can never change
// the outcome of another transaction's pending request: decisions move only
// when locks are released at Finished/Aborted (strict two-phase locking),
// never on step progress. The harness uses it to skip waking sleepers after
// every granted step — under a strict control those wakeups are a thundering
// herd that re-requests, loses, and sleeps again. Controls whose decisions
// observe step progress (closure previews, unit-boundary releases) must NOT
// declare it.
type StepQuiescent interface {
	StepQuiescentSafe()
}

// Releaser is implemented by Concurrent controls whose Request acquires
// resources (locks) that outlive the call. Because such a Request runs
// outside the harness's global mutex, it can race past a rollback of the
// requester: the abort releases everything t held, then the in-flight
// Request grants one more lock for the now-dead attempt. ReleaseAll
// discards every resource t still holds; the harness calls it when it
// detects such a stale grant, and when it parks a transaction for good.
type Releaser interface {
	ReleaseAll(t model.TxnID)
}

// DeadlineAborter is a capability no harness uses: the executor counts
// deadline rollbacks itself (engine.Counts.DeadlineAborts), nothing calls
// DeadlineAborted, and every control's method is empty. It stays only while
// tracing decorators still match their wrappers on it.
type DeadlineAborter interface {
	DeadlineAborted(t model.TxnID)
}

// Capabilities is the discovery result for a Control's optional hooks —
// the Ticker/Waker/AsyncAborter interfaces plus the restart-priority,
// partial-recovery, and retirement hooks that harnesses previously probed
// with scattered type assertions. Each field is a typed function bound to
// the control, or nil when the control does not implement the hook; a
// harness asserts once, then branches on nil.
//
// The underlying single-method interfaces remain the way a control DECLARES
// a capability — implement Ticker and CapabilitiesOf finds it. Capabilities
// only changes how harnesses CONSUME them.
type Capabilities struct {
	// Tick advances the control's notion of simulated time (Ticker).
	Tick func(now int64)
	// NextWake returns the control's next requested wake-up instant, or 0
	// for none (Waker).
	NextWake func(now int64) int64
	// TakeVictims drains asynchronously decided abort victims
	// (AsyncAborter).
	TakeVictims func() []model.TxnID
	// NewPriority recomputes a restart priority (RestartPrioritizer).
	NewPriority func(t model.TxnID, old, fresh int64) int64
	// AbortedTo clamps bookkeeping to a kept prefix (PartialAborter).
	AbortedTo func(t model.TxnID, keep int)
	// Retired frees state for a committed transaction (Retirer).
	Retired func(t model.TxnID)
	// ReleaseAll discards resources held by a rolled-back or parked
	// transaction (Releaser).
	ReleaseAll func(t model.TxnID)
	// DeadlineAborted is never called (DeadlineAborter).
	DeadlineAborted func(t model.TxnID)
	// Concurrent reports whether the control is safe for concurrent calls
	// (the Concurrent marker).
	Concurrent bool
	// QuiescentSteps reports whether a performed step can never unblock
	// another transaction's pending request (the StepQuiescent marker).
	QuiescentSteps bool
}

// CapabilitiesOf probes c once for every optional hook. The zero value of
// every absent capability is nil (or false), so callers write
// `if caps.Tick != nil { caps.Tick(now) }`.
func CapabilitiesOf(c Control) Capabilities {
	var caps Capabilities
	if tk, ok := c.(Ticker); ok {
		caps.Tick = tk.Tick
	}
	if w, ok := c.(Waker); ok {
		caps.NextWake = w.NextWake
	}
	if aa, ok := c.(AsyncAborter); ok {
		caps.TakeVictims = aa.TakeVictims
	}
	if rp, ok := c.(RestartPrioritizer); ok {
		caps.NewPriority = rp.NewPriority
	}
	if pa, ok := c.(PartialAborter); ok {
		caps.AbortedTo = pa.AbortedTo
	}
	if ret, ok := c.(Retirer); ok {
		caps.Retired = ret.Retired
	}
	if rel, ok := c.(Releaser); ok {
		caps.ReleaseAll = rel.ReleaseAll
	}
	if da, ok := c.(DeadlineAborter); ok {
		caps.DeadlineAborted = da.DeadlineAborted
	}
	_, caps.Concurrent = c.(Concurrent)
	_, caps.QuiescentSteps = c.(StepQuiescent)
	return caps
}

// ControlKind names a control family for constructor-by-kind creation —
// the public façade's way to build controls without reaching into
// constructor-specific signatures. (Kind was already taken by decision
// kinds, hence the longer name.)
type ControlKind int

const (
	// KindNone grants everything (the chaos ceiling).
	KindNone ControlKind = iota
	// KindSerial runs one transaction at a time (the throughput floor).
	KindSerial
	// KindTwoPhase is strict 2PL with waits-for deadlock detection.
	KindTwoPhase
	// KindShardedTwoPhase is strict 2PL with wound-wait over a striped
	// lock table; the concurrent engine's scalable control.
	KindShardedTwoPhase
	// KindTimestamp is basic timestamp ordering.
	KindTimestamp
	// KindPrevent is the paper's cycle-prevention control.
	KindPrevent
	// KindPreventDirect is prevention over direct conflicts only, without
	// the coherent closure (the E10 ablation; direct.go).
	KindPreventDirect
	// KindDetect is the paper's cycle-detection control.
	KindDetect
)

func (k ControlKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSerial:
		return "serial"
	case KindTwoPhase:
		return "2pl"
	case KindShardedTwoPhase:
		return "2pl-sharded"
	case KindTimestamp:
		return "tso"
	case KindPrevent:
		return "prevent"
	case KindPreventDirect:
		return "prevent-direct"
	case KindDetect:
		return "detect"
	}
	return "unknown"
}

// ParseControlKind inverts ControlKind.String.
func ParseControlKind(name string) (ControlKind, error) {
	for k := KindNone; k <= KindDetect; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown control kind %q", name)
}

// New constructs a fresh control of the given kind. The MLA controls
// (prevent, prevent-direct, detect) need the class nest and breakpoint
// spec; the serializability baselines ignore both, and passing nil is fine
// for them.
func New(kind ControlKind, n *nest.Nest, spec breakpoint.Spec) (Control, error) {
	switch kind {
	case KindNone:
		return NewNone(), nil
	case KindSerial:
		return NewSerial(), nil
	case KindTwoPhase:
		return NewTwoPhase(), nil
	case KindShardedTwoPhase:
		return NewShardedTwoPhase(0), nil
	case KindTimestamp:
		return NewTimestamp(), nil
	case KindPrevent, KindPreventDirect, KindDetect:
		if n == nil || spec == nil || n.K() != spec.K() {
			return nil, fmt.Errorf("sched: %s requires a nest and a breakpoint spec that agree on k", kind)
		}
		switch kind {
		case KindPrevent:
			return NewPreventer(n, spec), nil
		case KindDetect:
			return NewDetector(n, spec), nil
		}
		return newDirectPreventer(n), nil
	}
	return nil, fmt.Errorf("sched: unknown control kind %d", int(kind))
}
