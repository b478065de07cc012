package bench

import (
	"context"
	"math/rand"
	"time"

	"mla/internal/telemetry"
)

// Config is the one configuration type for every harness entry point: the
// experiment suite (All), the perf sweep (PerfRun), and the open-loop load
// cells (LoadRun). It is normally built with NewConfig and the With*
// functional options, though literal construction works too.
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

	// Quick shrinks the perf sweep (smaller workloads, GOMAXPROCS {1, max}
	// only) and the load cells (shorter run).
	Quick bool
	// Procs is the perf sweep's GOMAXPROCS points; default {1,2,4,8}
	// (quick: {1,8}).
	Procs []int

	// Rate is the open-loop offered rate in transactions/second. 0 picks
	// the load harness default.
	Rate float64
	// Duration sizes the load run: Rate×Duration transactions are offered
	// unless Txns overrides the count explicitly.
	Duration time.Duration
	// Txns is the explicit transaction count for load runs (0 = derive
	// from Rate and Duration).
	Txns int
	// Closed switches the load run to the classic closed loop — workers
	// issue as fast as completions allow and latency is measured from
	// dispatch. Closed-loop numbers hide server stalls (coordinated
	// omission); the mode exists for comparison, not for headline numbers.
	Closed bool
	// SLOP99 is the p99 latency objective a load run is judged against
	// (0 = report latency without a verdict).
	SLOP99 time.Duration
	// Workload names the load shape: "lowcontention" (default) or
	// "hotspot".
	Workload string
	// Workers bounds the load pool's concurrent in-flight transactions
	// (0 = harness default).
	Workers int

	// Shards partitions the entity store: a load run with Shards > 1
	// drives a shard.Group of that many mini-engines instead of the single
	// resident engine, and ShardRun uses it as the top of its shard sweep.
	// 0 or 1 is the unsharded engine.
	Shards int
}

// Option mutates a Config under construction.
type Option func(*Config)

// NewConfig builds a Config from defaults (Scale 1, Seed 1) plus options.
func NewConfig(opts ...Option) Config {
	c := Config{Scale: 1, Seed: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithScale sets the experiment scale multiplier.
func WithScale(n int) Option { return func(c *Config) { c.Scale = n } }

// WithSeed sets the seed for all randomness.
func WithSeed(s int64) Option { return func(c *Config) { c.Seed = s } }

// WithContext wires cancellation into long runs.
func WithContext(ctx context.Context) Option { return func(c *Config) { c.Context = ctx } }

// WithTelemetry attaches the shared telemetry sink.
func WithTelemetry(t *telemetry.Telemetry) Option { return func(c *Config) { c.Telemetry = t } }

// WithQuick toggles the reduced sweep/run shape.
func WithQuick(q bool) Option { return func(c *Config) { c.Quick = q } }

// WithProcs sets the perf sweep's GOMAXPROCS points.
func WithProcs(ps ...int) Option { return func(c *Config) { c.Procs = ps } }

// WithRate sets the open-loop offered rate (txns/second).
func WithRate(r float64) Option { return func(c *Config) { c.Rate = r } }

// WithDuration sets the load run length (Rate×Duration transactions).
func WithDuration(d time.Duration) Option { return func(c *Config) { c.Duration = d } }

// WithTxns pins the load run's transaction count explicitly.
func WithTxns(n int) Option { return func(c *Config) { c.Txns = n } }

// WithClosedLoop switches the load run to closed-loop dispatch.
func WithClosedLoop() Option { return func(c *Config) { c.Closed = true } }

// WithSLO sets the p99 objective the load run reports against.
func WithSLO(p99 time.Duration) Option { return func(c *Config) { c.SLOP99 = p99 } }

// WithWorkload selects the load shape ("lowcontention", "hotspot").
func WithWorkload(name string) Option { return func(c *Config) { c.Workload = name } }

// WithWorkers bounds the load pool's in-flight transactions.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithShards partitions the entity store across n shards.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

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
