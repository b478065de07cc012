package engine

import (
	"time"

	"mla/internal/model"
)

// Observer receives the engine's per-run lifecycle events. The engine
// invokes every hook while holding its internal mutex, so calls are
// serialized and totally ordered with respect to the run's state changes;
// implementations must return quickly and must not call back into the
// engine or the control. A nil Config.Observer disables eventing with no
// overhead beyond a nil check.
type Observer interface {
	// StepPerformed fires after a granted step executed against the store.
	// attempt is the transaction's current attempt number (0 = first); cut
	// is the coarseness of the breakpoint boundary after this step (0 = no
	// boundary), i.e. cut > 0 means the step ends a breakpoint unit.
	StepPerformed(t model.TxnID, seq int, x model.EntityID, attempt, cut int)
	// WaitBegin fires when the control answers Wait and the transaction
	// blocks until the next state change.
	WaitBegin(t model.TxnID, x model.EntityID)
	// WaitEnd fires when the blocked transaction wakes; waited is the
	// wall-clock time spent blocked on this wait.
	WaitEnd(t model.TxnID, x model.EntityID, waited time.Duration)
	// TxnAborted fires once per rolled-back victim. cascade reports whether
	// the victim was added by the value-dependency closure rather than
	// named by the control's decision.
	TxnAborted(t model.TxnID, cascade bool)
	// CommitGroup fires when a commit group forms, with the sorted members.
	// RunWithCrashes also fires it between rounds, right after Recovered,
	// for the crashed round's commits that recovery found durable but whose
	// ack the crash swallowed. txns is valid only during the call: an
	// observer copies what it keeps.
	CommitGroup(txns []model.TxnID)

	// FaultInjected fires when the fault injector fails a step attempt
	// transiently; try counts the in-place retries of this step so far.
	FaultInjected(t model.TxnID, seq int, try int)
	// TxnGaveUp fires when a transaction exhausts its restart budget and
	// is parked (reported in Result.GaveUp) instead of restarting again.
	TxnGaveUp(t model.TxnID, restarts int)
	// Crashed fires when an injected crash kills round (0-based) of a
	// RunWithCrashes plan; torn is the number of durable records the crash
	// tore off the log tail. Unlike the per-step hooks it is invoked by the
	// recovery loop between rounds, not under the engine mutex.
	Crashed(round int, torn int)
	// Recovered fires after wal.Open replays the durable log before round
	// (0-based); committed is the number of durably committed transactions
	// that survived. Invoked by the recovery loop between rounds.
	Recovered(round int, committed int)
	// RunEnded fires exactly once per engine run (per recovery round under
	// RunWithCrashes), after every worker has been joined — on clean
	// completion, cancellation, timeout, and injected crash alike.
	RunEnded(committed, gaveUp int, elapsed time.Duration)
}

// NopObserver implements Observer with no-ops; embed it to implement only
// the events of interest.
type NopObserver struct{}

// StepPerformed implements Observer.
func (NopObserver) StepPerformed(model.TxnID, int, model.EntityID, int, int) {}

// WaitBegin implements Observer.
func (NopObserver) WaitBegin(model.TxnID, model.EntityID) {}

// WaitEnd implements Observer.
func (NopObserver) WaitEnd(model.TxnID, model.EntityID, time.Duration) {}

// TxnAborted implements Observer.
func (NopObserver) TxnAborted(model.TxnID, bool) {}

// CommitGroup implements Observer.
func (NopObserver) CommitGroup([]model.TxnID) {}

// FaultInjected implements Observer.
func (NopObserver) FaultInjected(model.TxnID, int, int) {}

// TxnGaveUp implements Observer.
func (NopObserver) TxnGaveUp(model.TxnID, int) {}

// Crashed implements Observer.
func (NopObserver) Crashed(int, int) {}

// Recovered implements Observer.
func (NopObserver) Recovered(int, int) {}

// RunEnded implements Observer.
func (NopObserver) RunEnded(int, int, time.Duration) {}

// Tee fans every event out to each non-nil observer in order. It lets a
// caller combine a history recorder with a telemetry recorder on the same
// run. Tee(nil...) and Tee() return nil, preserving the "nil observer =
// disabled" fast path.
func Tee(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Observer

func (t tee) StepPerformed(id model.TxnID, seq int, x model.EntityID, attempt, cut int) {
	for _, o := range t {
		o.StepPerformed(id, seq, x, attempt, cut)
	}
}

func (t tee) WaitBegin(id model.TxnID, x model.EntityID) {
	for _, o := range t {
		o.WaitBegin(id, x)
	}
}

func (t tee) WaitEnd(id model.TxnID, x model.EntityID, waited time.Duration) {
	for _, o := range t {
		o.WaitEnd(id, x, waited)
	}
}

func (t tee) TxnAborted(id model.TxnID, cascade bool) {
	for _, o := range t {
		o.TxnAborted(id, cascade)
	}
}

func (t tee) CommitGroup(ids []model.TxnID) {
	for _, o := range t {
		o.CommitGroup(ids)
	}
}

func (t tee) FaultInjected(id model.TxnID, seq, try int) {
	for _, o := range t {
		o.FaultInjected(id, seq, try)
	}
}

func (t tee) TxnGaveUp(id model.TxnID, restarts int) {
	for _, o := range t {
		o.TxnGaveUp(id, restarts)
	}
}

func (t tee) Crashed(round, torn int) {
	for _, o := range t {
		o.Crashed(round, torn)
	}
}

func (t tee) Recovered(round, committed int) {
	for _, o := range t {
		o.Recovered(round, committed)
	}
}

func (t tee) RunEnded(committed, gaveUp int, elapsed time.Duration) {
	for _, o := range t {
		o.RunEnded(committed, gaveUp, elapsed)
	}
}
