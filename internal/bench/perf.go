// Perf is the engine performance harness behind `mlabench -perf` and E19:
// it runs hot-spot and low-contention increment workloads on the real
// concurrent engine in two configurations —
//
//   - baseline: the "unoptimized path" — wound-wait 2PL over a SINGLE lock
//     stripe, commits made durable one group at a time with a device sync
//     each, performed under the engine mutex;
//   - optimized: the tentpole — 16 lock stripes with Request outside the
//     engine mutex, commits batched by the WAL group-commit pipeline with
//     one sync per flush, acknowledged off the engine's critical path;
//
// sweeping GOMAXPROCS, and measuring throughput, commit-latency order
// statistics, device syncs per commit, and allocations per transaction.
// The device is simulated with a fixed per-sync delay (a fast SSD's fsync)
// so durability cost is explicit and identical for both configurations.
//
// Safety is asserted, not assumed: the workloads are commutative
// (increments), so every schedule that commits all transactions must reach
// the same final state. Each run is checked against the arithmetically
// expected values and against its sibling configuration at the equal seed;
// any divergence fails the report (EquivalenceOK=false), which `mlabench
// -perf` and the nightly perf job turn into a nonzero exit.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/telemetry"
	"mla/internal/wal"
)

// perfSyncDelay simulates the device's per-sync latency.
const perfSyncDelay = 300 * time.Microsecond

// perfProg increments each of its entities once, in order. Increments
// commute, which is what makes cross-configuration equivalence checkable
// on a nondeterministic engine: any schedule committing every program
// yields exactly init + per-entity increment counts.
type perfProg struct {
	id   model.TxnID
	ents []model.EntityID
	st   perfState
}

func (p *perfProg) ID() model.TxnID { return p.id }

// Init recycles the program-owned state: a transaction's attempts are
// sequential (the engine rolls an attempt fully back before restarting), so
// one state per program suffices and stepping allocates nothing — a tuned
// client program is part of the workload the allocation budget measures.
func (p *perfProg) Init() model.ProgState {
	p.st = perfState{ents: p.ents}
	return &p.st
}

// perfState is a pointer state mutated in place: Apply returns the same
// ProgState value, so stepping a transaction re-boxes nothing. It is shared
// by the perf sweep's perfProg and the load cell's loadProg.
type perfState struct {
	ents []model.EntityID
	idx  int
}

func (s *perfState) Next() (model.EntityID, bool) {
	if s.idx < len(s.ents) {
		return s.ents[s.idx], true
	}
	return "", false
}

func (s *perfState) Apply(v model.Value) (model.Value, string, model.ProgState) {
	s.idx++
	return v + 1, "inc", s
}

// perfWorkload is one generated workload plus its schedule-independent
// expected outcome.
type perfWorkload struct {
	name  string
	progs []model.Program
	init  map[model.EntityID]model.Value
	want  map[model.EntityID]model.Value
}

// genPerfWorkload strides txns of k steps over the given entity count: a
// small count makes a hot spot (every transaction collides), a large one
// leaves only incidental overlap between neighbours.
func genPerfWorkload(name string, txns, k, entities int) perfWorkload {
	w := perfWorkload{
		name: name,
		init: make(map[model.EntityID]model.Value),
		want: make(map[model.EntityID]model.Value),
	}
	for e := 0; e < entities; e++ {
		x := model.EntityID(fmt.Sprintf("x%03d", e))
		w.init[x] = 100
		w.want[x] = 100
	}
	for i := 0; i < txns; i++ {
		p := &perfProg{id: model.TxnID(fmt.Sprintf("t%03d", i))}
		for j := 0; j < k; j++ {
			x := model.EntityID(fmt.Sprintf("x%03d", (i*k+j)%entities))
			p.ents = append(p.ents, x)
			w.want[x]++
		}
		w.progs = append(w.progs, p)
	}
	return w
}

// syncWALStore is the unbatched durability discipline: every commit group
// becomes durable individually, paying one device sync before the commit
// is acknowledged — and, because the engine calls CommitGroup under its
// mutex, stalling every worker for the sync. This is the baseline the
// group-commit pipeline is measured against.
type syncWALStore struct{ db *wal.DB }

func (s syncWALStore) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	return s.db.Perform(t, seq, x, f)
}
func (s syncWALStore) Abort(set map[model.TxnID]bool) error { return s.db.Abort(set) }
func (s syncWALStore) CommitGroup(ids []model.TxnID) {
	s.db.CommitGroup(ids)
	s.db.Sync()
}
func (s syncWALStore) Values() map[model.EntityID]model.Value { return s.db.Values() }

// PerfRun executes the full sweep (the Kind "perf" report behind
// `mlabench -perf` and BENCH_4.json). Telemetry, when configured, attaches
// a per-cell engine.TelemetryObserver (spans for every lock wait, commit
// group, …), folds each cell's WAL counters into the registry, and appends
// a small crash-recovery cell so the exported trace also contains recovery
// spans. PerfRun mutates GOMAXPROCS during the run and restores it before
// returning.
func PerfRun(ctx context.Context, opts Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	procs := opts.Procs
	if len(procs) == 0 {
		if opts.Quick {
			procs = []int{1, 8}
		} else {
			procs = []int{1, 2, 4, 8}
		}
	}
	txns, steps := 64, 6
	if opts.Quick {
		txns = 24
	}
	workloads := []perfWorkload{
		// Hot spot: every transaction fights over 4 entities.
		genPerfWorkload("hotspot", txns, steps, 4),
		// Low contention: only neighbouring transactions overlap.
		genPerfWorkload("lowcontention", txns, steps, txns*3),
	}
	rep := &Report{
		Schema:        Schema,
		Kind:          "perf",
		Seed:          opts.Seed,
		Quick:         opts.Quick,
		SyncDelayUS:   perfSyncDelay.Microseconds(),
		EquivalenceOK: true,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	maxProcs := procs[len(procs)-1]
	var hotBase, hotOpt float64
	for _, wl := range workloads {
		for _, p := range procs {
			for _, config := range []string{"baseline", "optimized"} {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				m, err := perfCase(ctx, wl, config, p, opts.Seed, opts.Telemetry)
				if err != nil {
					return nil, fmt.Errorf("bench: perf %s/%s@%d: %w", wl.name, config, p, err)
				}
				if m.Committed != m.Txns {
					rep.EquivalenceOK = false
				}
				if wl.name == "hotspot" && p == maxProcs {
					if config == "baseline" {
						hotBase = m.ThroughputTPS
					} else {
						hotOpt = m.ThroughputTPS
					}
				}
				rep.Measurements = append(rep.Measurements, m)
			}
		}
	}
	if hotBase > 0 {
		rep.HotspotSpeedup = hotOpt / hotBase
	}
	if opts.Telemetry != nil {
		rec, err := perfRecoveryCell(ctx, opts.Seed, opts.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("bench: perf recovery cell: %w", err)
		}
		if rec.failed {
			rep.EquivalenceOK = false
		}
		rep.Recovery = &rec.PerfRecovery
	}
	return rep, nil
}

// perfRecoveryResult carries the recovery cell's summary plus its pass/fail
// verdict (a wrong final state flips the report's EquivalenceOK).
type perfRecoveryResult struct {
	PerfRecovery
	failed bool
}

// perfRecoveryCell runs a small crash-recovery plan under the telemetry
// observer: two injected crashes with a torn tail, so the exported trace
// contains crash and recovery spans next to the sweep's lock-wait and
// commit-group spans. The workload is the same commutative increment shape
// as the sweep, so the final state is checkable.
func perfRecoveryCell(ctx context.Context, seed int64, tel *telemetry.Telemetry) (*perfRecoveryResult, error) {
	wl := genPerfWorkload("recovery", 12, 4, 6)
	start := time.Now()
	plan := engine.CrashPlan{
		Cfg: engine.Config{
			Seed:     seed,
			Observer: engine.NewTelemetryObserver(tel, "perf/recovery"),
		},
		Init: wl.init,
		Faults: fault.Plan{
			Seed:         seed,
			CrashAppends: []int64{10, 25},
			TearTail:     1,
		},
		NewControl: func() sched.Control { return sched.NewShardedTwoPhase(16) },
	}
	out, err := engine.RunWithCrashes(ctx, plan, wl.progs)
	if err != nil {
		return nil, err
	}
	rec := &perfRecoveryResult{PerfRecovery: PerfRecovery{
		Crashes:   out.Crashes,
		Rounds:    out.Rounds,
		TornTotal: out.TornTotal,
		Committed: out.Committed,
		ElapsedUS: time.Since(start).Microseconds(),
	}}
	for x, v := range wl.want {
		if out.Final[x] != v {
			rec.failed = true
		}
	}
	if out.Committed != len(wl.progs) {
		rec.failed = true
	}
	return rec, nil
}

// perfCase runs one cell: build the store for the configuration, run the
// engine at the given GOMAXPROCS, verify the outcome against the
// schedule-independent expectation, and fold the counters.
func perfCase(ctx context.Context, wl perfWorkload, config string, procs int, seed int64, tel *telemetry.Telemetry) (PerfMeasurement, error) {
	runtime.GOMAXPROCS(procs)
	medium := wal.NewMedium()
	medium.SyncDelay = perfSyncDelay
	db, err := wal.Open(medium, wl.init)
	if err != nil {
		return PerfMeasurement{}, err
	}
	var store engine.Store
	var pipe *wal.Pipeline
	var control sched.Control
	if config == "optimized" {
		pipe = wal.NewPipeline(db, 0)
		store = engine.NewPipelinedWALStore(pipe)
		control = sched.NewShardedTwoPhase(16)
	} else {
		store = syncWALStore{db: db}
		control = sched.NewShardedTwoPhase(1) // single stripe: the unoptimized lock path
	}
	cfg := engine.Config{Seed: seed}
	if tel != nil {
		cfg.Observer = engine.NewTelemetryObserver(tel, fmt.Sprintf("%s/%s@%d", wl.name, config, procs))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.RunOnStore(ctx, cfg, wl.progs, control, nil, store)
	if pipe != nil {
		pipe.Close()
	}
	if err != nil {
		return PerfMeasurement{}, err
	}
	runtime.ReadMemStats(&after)
	if tel != nil {
		tel.Metrics.ObserveSnapshot("wal."+config, db.Snapshot())
	}
	// The equivalence assertion: commutative workload, so the optimized and
	// baseline paths must both land exactly on init + increment counts.
	for x, v := range wl.want {
		if res.Final[x] != v {
			return PerfMeasurement{}, fmt.Errorf("final[%s] = %d, want %d: optimized and baseline paths diverged", x, res.Final[x], v)
		}
	}
	lat := res.LatencySummary()
	m := PerfMeasurement{
		Workload:     wl.name,
		Config:       config,
		Procs:        procs,
		Txns:         len(wl.progs),
		Committed:    res.Committed,
		Restarts:     res.Restarts,
		P50LatencyUS: lat.P50,
		P99LatencyUS: lat.P99,
		Fsyncs:       db.Snapshot().Syncs,
		ElapsedUS:    res.Elapsed.Microseconds(),
	}
	if res.Elapsed > 0 {
		m.ThroughputTPS = float64(res.Committed) / res.Elapsed.Seconds()
	}
	if res.Committed > 0 {
		m.FsyncsPerCommit = float64(m.Fsyncs) / float64(res.Committed)
		m.AllocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(res.Committed)
	}
	return m, nil
}

// E19Perf wraps the perf harness as an experiment: a quick sweep whose
// equivalence assertions must hold. Scale >= 2 runs the full sweep.
func E19Perf(o Config) (*metrics.Table, error) {
	rep, err := PerfRun(o.ctx(), NewConfig(WithSeed(o.Seed), WithQuick(o.scale() <= 1), WithTelemetry(o.Telemetry)))
	if err != nil {
		return nil, err
	}
	if !rep.EquivalenceOK {
		return nil, fmt.Errorf("bench: E19: optimized path changed commit outcomes")
	}
	return rep.Table(), nil
}
