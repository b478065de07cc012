package bench

import (
	"context"
	"math/rand"

	"mla/internal/telemetry"
)

// Config is what every experiment runner takes; callers build it as a
// literal.
type Config struct {
	// Scale multiplies trial counts and workload sizes for the experiment
	// suite. 1 is the quick configuration used from benchmarks and tests;
	// cmd/mlabench defaults to 2.
	Scale int
	// Seed drives all randomness.
	Seed int64
	// Context, when non-nil, cancels in-flight runs between events; a
	// cancelled run returns the wrapped ctx error. cmd/mlabench wires the
	// interrupt signal here so ^C stops a long sweep promptly.
	Context context.Context
	// Telemetry, when non-nil, is the shared sink runs record into: spans
	// from the runs that support tracing and aggregated counters from every
	// Snapshot(). cmd/mlabench exports it via -telemetry / -trace-out.
	Telemetry *telemetry.Telemetry
}

func (o Config) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Config) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

func (o Config) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}
