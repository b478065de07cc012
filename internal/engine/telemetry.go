package engine

import (
	"fmt"
	"time"

	"mla/internal/model"
	"mla/internal/telemetry"
)

// TelemetryObserver records a run's lifecycle events as spans: intervals
// for run, transaction attempt, breakpoint unit, lock wait, and recovery;
// instants for step, abort, commit group, fault, give-up, and crash. It
// counts nothing: the engine counts each quantity once, in the Counts that
// Result, SessionStats and CrashResult embed, and a caller folds them into
// a registry with ObserveSnapshot. One observer serves a whole RunWithCrashes plan: each
// recovery round opens a fresh run span and Crashed/Recovered bracket the
// recovery spans between rounds.
//
// Concurrency: the engine serializes every hook (under its mutex during a
// run; between rounds for Crashed/Recovered and late commit groups), so the
// observer appends to one lock-free telemetry.Local and adds no locking of
// its own — enabled
// telemetry costs the engine nothing beyond the work recorded here, and
// disabled telemetry (nil Config.Observer) stays one nil check.
type TelemetryObserver struct {
	tr  *telemetry.Tracer
	l   *telemetry.Local
	pid int64

	run      telemetry.SpanID
	runOpen  bool
	rounds   int
	recovery telemetry.SpanID
	recOpen  bool

	lanes   map[model.TxnID]int64
	attempt map[model.TxnID]int
	txn     map[model.TxnID]telemetry.SpanID
	unit    map[model.TxnID]telemetry.SpanID
	wait    map[model.TxnID]telemetry.SpanID
}

// NewTelemetryObserver returns an observer recording into tel. label names
// the process lane in the exported trace (e.g. "hotspot/optimized@8");
// each observer gets its own lane, so several runs export side by side.
// A nil tel returns a nil Observer, which Config.Observer treats as
// disabled.
func NewTelemetryObserver(tel *telemetry.Telemetry, label string) Observer {
	if tel == nil {
		return nil
	}
	o := &TelemetryObserver{
		tr:      tel.Trace,
		l:       tel.Trace.Local(),
		pid:     tel.Trace.NextPID(),
		lanes:   make(map[model.TxnID]int64),
		attempt: make(map[model.TxnID]int),
		txn:     make(map[model.TxnID]telemetry.SpanID),
		unit:    make(map[model.TxnID]telemetry.SpanID),
		wait:    make(map[model.TxnID]telemetry.SpanID),
	}
	if label == "" {
		label = "engine"
	}
	tel.Trace.NameProcess(o.pid, label)
	tel.Trace.NameLane(o.pid, 0, "run")
	return o
}

func (o *TelemetryObserver) lane(t model.TxnID) int64 {
	tid, ok := o.lanes[t]
	if !ok {
		tid = int64(len(o.lanes) + 1)
		o.lanes[t] = tid
		o.tr.NameLane(o.pid, tid, string(t))
	}
	return tid
}

func (o *TelemetryObserver) ensureRun() telemetry.SpanID {
	if !o.runOpen {
		o.rounds++
		o.run = o.l.Begin("run", fmt.Sprintf("run %d", o.rounds), o.pid, 0, 0)
		o.runOpen = true
	}
	return o.run
}

func (o *TelemetryObserver) ensureTxn(t model.TxnID) telemetry.SpanID {
	id, ok := o.txn[t]
	if !ok {
		name := fmt.Sprintf("%s#%d", t, o.attempt[t])
		id = o.l.Begin("txn", name, o.pid, o.lane(t), o.ensureRun())
		o.txn[t] = id
	}
	return id
}

// closeTxn seals a transaction's open wait, unit, and attempt spans with
// the given outcome arg, and numbers the transaction's next attempt. The
// observer keeps that number itself rather than reading the engine's:
// WaitBegin and FaultInjected can open an attempt's span before its first
// step reports the attempt, and a crash round restarts the engine's count
// while the trace goes on.
func (o *TelemetryObserver) closeTxn(t model.TxnID, outcome string) {
	o.attempt[t]++
	if id, ok := o.wait[t]; ok {
		o.l.Arg(id, "outcome", outcome)
		o.l.End(id)
		delete(o.wait, t)
	}
	if id, ok := o.unit[t]; ok {
		o.l.End(id)
		delete(o.unit, t)
	}
	if id, ok := o.txn[t]; ok {
		o.l.Arg(id, "outcome", outcome)
		o.l.End(id)
		delete(o.txn, t)
	}
}

// StepPerformed implements Observer: steps accrete into breakpoint-unit
// spans; a positive cut closes the current unit at this step.
func (o *TelemetryObserver) StepPerformed(t model.TxnID, seq int, x model.EntityID, _, cut int) {
	parent := o.ensureTxn(t)
	id, ok := o.unit[t]
	if !ok {
		id = o.l.Begin("unit", "unit", o.pid, o.lane(t), parent, "first_step", fmt.Sprint(seq))
		o.unit[t] = id
	}
	if cut > 0 {
		o.l.Arg(id, "cut", fmt.Sprint(cut))
		o.l.Arg(id, "last_step", fmt.Sprint(seq))
		o.l.End(id)
		delete(o.unit, t)
	}
	// The step instant puts every performed step on the trace's timeline.
	o.l.Event("step", fmt.Sprintf("%s[%d]", t, seq), o.pid, o.lane(t), id,
		"txn", string(t), "seq", fmt.Sprint(seq), "entity", string(x), "cut", fmt.Sprint(cut))
}

// WaitBegin implements Observer.
func (o *TelemetryObserver) WaitBegin(t model.TxnID, x model.EntityID) {
	parent := o.ensureTxn(t)
	if u, ok := o.unit[t]; ok {
		parent = u
	}
	o.wait[t] = o.l.Begin("lock-wait", "wait "+string(x), o.pid, o.lane(t), parent)
}

// WaitEnd implements Observer.
func (o *TelemetryObserver) WaitEnd(t model.TxnID, _ model.EntityID, _ time.Duration) {
	if id, ok := o.wait[t]; ok {
		o.l.End(id)
		delete(o.wait, t)
	}
}

// TxnAborted implements Observer.
func (o *TelemetryObserver) TxnAborted(t model.TxnID, cascade bool) {
	outcome := "abort"
	if cascade {
		outcome = "cascade"
	}
	o.closeTxn(t, outcome)
	o.l.Event("abort", "abort "+string(t), o.pid, o.lane(t), o.ensureRun(),
		"txn", string(t), "cascade", fmt.Sprint(cascade))
}

// CommitGroup implements Observer. A group announced between rounds (the
// crashed round's durable commits, after Recovered) is a root instant: it
// opens no run span.
func (o *TelemetryObserver) CommitGroup(txns []model.TxnID) {
	for _, t := range txns {
		o.closeTxn(t, "commit")
	}
	var parent telemetry.SpanID
	if o.runOpen {
		parent = o.run
	}
	o.l.Event("commit-group", fmt.Sprintf("commit group (%d)", len(txns)),
		o.pid, 0, parent, "size", fmt.Sprint(len(txns)), "txns", joinTxns(txns))
}

// joinTxns renders a commit group's members as one comma-joined arg value.
func joinTxns(txns []model.TxnID) string {
	var b []byte
	for i, t := range txns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t...)
	}
	return string(b)
}

// FaultInjected implements Observer.
func (o *TelemetryObserver) FaultInjected(t model.TxnID, seq int, try int) {
	o.l.Event("fault", "fault "+string(t), o.pid, o.lane(t), o.ensureTxn(t),
		"seq", fmt.Sprint(seq), "try", fmt.Sprint(try))
}

// TxnGaveUp implements Observer.
func (o *TelemetryObserver) TxnGaveUp(t model.TxnID, restarts int) {
	o.closeTxn(t, "gaveup")
	o.l.Event("gaveup", "gaveup "+string(t), o.pid, o.lane(t), o.ensureRun(),
		"restarts", fmt.Sprint(restarts))
}

// Crashed implements Observer: RunEnded has already sealed the round's
// spans (the recovery loop calls Crashed after RunOnStore returns), so the
// crash is an instant and the recovery pass opens as an interval that
// Recovered will close.
func (o *TelemetryObserver) Crashed(round int, torn int) {
	o.l.Event("crash", fmt.Sprintf("crash round %d", round), o.pid, 0, 0,
		"torn", fmt.Sprint(torn))
	if o.recOpen {
		o.l.End(o.recovery) // defensive: recovery interrupted by a crash
	}
	o.recovery = o.l.Begin("recovery", fmt.Sprintf("recovery %d", round+1), o.pid, 0, 0)
	o.recOpen = true
}

// Recovered implements Observer.
func (o *TelemetryObserver) Recovered(round int, committed int) {
	if o.recOpen {
		o.l.Arg(o.recovery, "durable_commits", fmt.Sprint(committed))
		o.l.End(o.recovery)
		o.recOpen = false
		return
	}
	// No matching Crashed (defensive): record the recovery as an instant.
	o.l.Event("recovery", fmt.Sprintf("recovery %d", round), o.pid, 0, 0,
		"durable_commits", fmt.Sprint(committed))
}

// RunEnded implements Observer: seal whatever the run left open — on a
// clean run nothing, on a crash or timeout the in-flight transactions —
// and close the round's run span.
func (o *TelemetryObserver) RunEnded(committed, gaveUp int, elapsed time.Duration) {
	for t := range o.txn {
		o.closeTxn(t, "interrupted")
	}
	if o.runOpen {
		o.l.Arg(o.run, "committed", fmt.Sprint(committed))
		o.l.Arg(o.run, "gaveup", fmt.Sprint(gaveUp))
		o.l.Arg(o.run, "elapsed_us", fmt.Sprint(elapsed.Microseconds()))
		o.l.End(o.run)
		o.runOpen = false
	}
}
