// Package telemetry is the run-wide observability layer: a registry of
// named counters that folds the per-package Snapshot() stats conventions
// (engine, lock, sched, wal, net, dist, serve) into one aggregated
// race-safe view, and a span tracer recording per-transaction
// timelines — run, transaction attempt, breakpoint unit, lock wait, commit
// group, recovery pass, replica RPC — lock-free per goroutine and merged
// at run end.
//
// It exports two ways:
//
//   - Chrome trace-event JSON (WriteTrace / Tracer.WriteChrome), loadable
//     in chrome://tracing or Perfetto;
//   - Prometheus's untyped text format (Registry.WriteText), which
//     mlaserve serves live at GET /metrics and mlasim/mlabench -telemetry
//     print.
//
// The package depends only on the standard library; every producer hook
// is designed so that DISABLED telemetry costs exactly one nil check on
// the producer's side (the engine's Observer, the bus's attached Local).
//
// Timestamps: wall-clock producers use Tracer.Now (nanoseconds since the
// tracer's epoch). Simulated-time producers map one simulator time unit to
// one microsecond (unit*1000 ns), so simulator traces render on the same
// axis conventions without pretending to wall-clock accuracy.
package telemetry

import "os"

// SimUnit converts a simulated timestamp (discrete simulator units) to
// trace nanoseconds: one unit maps to one microsecond.
func SimUnit(t int64) int64 { return t * 1000 }

// Telemetry bundles the two halves of the observability layer. A nil
// *Telemetry means "disabled" everywhere it is accepted.
type Telemetry struct {
	Metrics *Registry
	Trace   *Tracer
}

// New returns an enabled, empty telemetry sink.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Trace: NewTracer()}
}

// WriteTrace writes the merged spans as Chrome trace-event JSON to path.
func (t *Telemetry) WriteTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Trace.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
