package mla

import (
	"context"

	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/sched"
	"mla/internal/telemetry"
)

// This file is the façade's execution surface: run transaction programs
// for real — concurrently, under a pluggable concurrency control, with
// optional crash injection — without importing the internal packages.
// Everything here is context-first and mirrors internal/engine; the
// deterministic discrete-event counterpart stays in internal/sim.

// Control is a pluggable concurrency control (see NewControl for the
// catalogue). Controls are single-run and volatile: build a fresh one per
// Run.
type Control = sched.Control

// ControlKind names a control family for NewControl.
type ControlKind = sched.ControlKind

// The control catalogue: the paper's Section 6 controls plus the
// serializability baselines.
const (
	// ControlNone grants everything (the chaos ceiling).
	ControlNone = sched.KindNone
	// ControlSerial runs one transaction at a time (the throughput floor).
	ControlSerial = sched.KindSerial
	// ControlTwoPhase is strict 2PL with waits-for deadlock detection.
	ControlTwoPhase = sched.KindTwoPhase
	// ControlShardedTwoPhase is strict 2PL with wound-wait over a striped
	// lock table; the concurrent engine's scalable choice.
	ControlShardedTwoPhase = sched.KindShardedTwoPhase
	// ControlTimestamp is basic timestamp ordering.
	ControlTimestamp = sched.KindTimestamp
	// ControlPrevent is the paper's cycle-prevention control.
	ControlPrevent = sched.KindPrevent
	// ControlPreventDirect is prevention without transitive tracking.
	ControlPreventDirect = sched.KindPreventDirect
	// ControlDetect is the paper's cycle-detection control.
	ControlDetect = sched.KindDetect
)

// NewControl constructs a fresh control of the given kind. The multilevel
// controls (ControlPrevent, ControlPreventDirect, ControlDetect) need the
// class nest and breakpoint specification; the baselines ignore both and
// accept nil.
func NewControl(kind ControlKind, n *Nest, bp BreakpointSpec) (Control, error) {
	return sched.New(kind, n, bp)
}

// ParseControlKind resolves a kind by name ("2pl", "prevent", ...),
// inverting ControlKind.String.
func ParseControlKind(name string) (ControlKind, error) { return sched.ParseControlKind(name) }

// Observer receives a run's lifecycle events (steps, waits, aborts, commit
// groups, faults, crashes); NopObserver is the embeddable no-op. Counting
// needs no observer: RunResult holds the engine's counts.
type Observer = engine.Observer

// NopObserver implements Observer with no-ops; embed it to implement only
// the events of interest.
type NopObserver = engine.NopObserver

// TeeObservers fans one run's events out to several observers (nil entries
// are dropped; a nil result means "no observer").
func TeeObservers(obs ...Observer) Observer { return engine.Tee(obs...) }

// Telemetry is the shared observability sink: a registry of named counters
// plus a span tracer whose output loads in Perfetto (ui.perfetto.dev) via
// WriteTrace. Create one with NewTelemetry, attach it to a run with
// WithTelemetry, then export.
type Telemetry = telemetry.Telemetry

// NewTelemetry creates an empty telemetry sink.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry returns cfg with a span recorder attached (teed with any
// observer already present). Every engine event becomes a span: intervals
// for the run, each transaction attempt, breakpoint unit, lock wait, and
// recovery pass; instants for commit groups, aborts, faults, give-ups, and
// crashes. It counts nothing: the run's Result holds the counts, and
// Metrics.ObserveSnapshot(prefix, res.Counts) folds them into the
// registry. label names the trace lane; a nil tel returns cfg unchanged.
func WithTelemetry(cfg RunConfig, tel *Telemetry, label string) RunConfig {
	if tel == nil {
		return cfg
	}
	cfg.Observer = engine.Tee(cfg.Observer, engine.NewTelemetryObserver(tel, label))
	return cfg
}

// RunConfig shapes a concurrent run: per-step delay, seed, observer,
// restart budget, fault injection. The whole-run deadline is the context's.
type RunConfig = engine.Config

// RunResult reports a concurrent run: the committed execution, final
// values, and throughput/latency/abort accounting.
type RunResult = engine.Result

// CrashPlan configures RunWithCrashes: the workload bounds plus the fault
// plan (crash points, torn tails, transient step errors) and a fresh
// control per recovery round.
type CrashPlan = engine.CrashPlan

// CrashResult aggregates a crash-recovery run across all rounds.
type CrashResult = engine.CrashResult

// FaultPlan declares deterministic fault injection: transient step errors,
// crash append counts, wall-clock crash budgets, torn log tails.
type FaultPlan = fault.Plan

// Run executes the programs concurrently — one goroutine per transaction —
// under the control, against an in-memory store initialized with init.
// Cancelling ctx, or passing its deadline (engine.DefaultTimeout when it has
// none), stops every goroutine before Run returns. The returned execution contains exactly the
// committed steps; validate it with Spec.Atomic or Spec.Correctable.
func Run(ctx context.Context, cfg RunConfig, programs []Program, control Control, bp BreakpointSpec, init map[EntityID]Value) (*RunResult, error) {
	return engine.Run(ctx, cfg, programs, control, bp, init)
}

// RunWithCrashes executes the plan's workload to completion across
// injected crashes: each crash loses all volatile state (and optionally
// tears the durable log tail), a write-ahead log recovers the committed
// prefix, and a fresh round restarts every transaction without a durable
// commit. Committed work is never redone.
func RunWithCrashes(ctx context.Context, plan CrashPlan, programs []Program) (*CrashResult, error) {
	return engine.RunWithCrashes(ctx, plan, programs)
}
