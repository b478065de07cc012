// E19 is the engine performance demonstration: hot-spot and low-contention
// increment workloads on the real concurrent engine in two configurations —
//
//   - baseline: the "unoptimized path" — wound-wait 2PL over a SINGLE lock
//     stripe, commits made durable one group at a time with a device sync
//     each, performed under the engine mutex;
//   - optimized: 16 lock stripes with Request outside the engine mutex,
//     commits batched by the WAL group-commit pipeline with one sync per
//     flush, acknowledged off the engine's critical path;
//
// sweeping GOMAXPROCS, and reporting throughput, commit-latency order
// statistics, device syncs per commit, and allocations per transaction.
// The device is simulated with a fixed per-sync delay (a fast SSD's fsync)
// so durability cost is explicit and identical for both configurations.
// The cells are 24 or 64 transactions long: a mechanism demonstration, not
// a throughput result — throughput is measured by benchmark/.
//
// Safety is asserted, not assumed: the workloads are commutative
// (increments), so every schedule that commits all transactions must reach
// the same final state. Each cell is checked against the arithmetically
// expected values; a miss is the runner's error.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mla/internal/engine"
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
// ProgState value, so stepping a transaction re-boxes nothing.
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

// perfCase runs one cell: build the store for the configuration, run the
// engine at the given GOMAXPROCS, verify the outcome against the
// schedule-independent expectation, append the cell's row to tbl and return
// its throughput. Telemetry, when non-nil, attaches a per-cell
// engine.TelemetryObserver (spans for every lock wait and commit group) and
// folds the cell's engine counts and WAL counters into the registry.
func perfCase(ctx context.Context, tbl *metrics.Table, wl perfWorkload, config string, procs int, seed int64, tel *telemetry.Telemetry) (float64, error) {
	runtime.GOMAXPROCS(procs)
	medium := wal.NewMedium()
	medium.SyncDelay = perfSyncDelay
	db, err := wal.Open(medium, wl.init)
	if err != nil {
		return 0, err
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
	cfg.Observer = engine.NewTelemetryObserver(tel, fmt.Sprintf("%s/%s@%d", wl.name, config, procs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.RunOnStore(ctx, cfg, wl.progs, control, nil, store)
	if pipe != nil {
		pipe.Close()
	}
	if err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	if tel != nil {
		tel.Metrics.ObserveSnapshot("engine", res.Counts)
		tel.Metrics.ObserveSnapshot("wal."+config, db.Snapshot())
	}
	// The equivalence assertion: commutative workload, so the optimized and
	// baseline paths must both land exactly on init + increment counts.
	if res.Committed != len(wl.progs) {
		return 0, fmt.Errorf("committed %d of %d transactions", res.Committed, len(wl.progs))
	}
	for x, v := range wl.want {
		if res.Final[x] != v {
			return 0, fmt.Errorf("final[%s] = %d, want %d: optimized and baseline paths diverged", x, res.Final[x], v)
		}
	}
	lat := res.LatencySummary()
	committed := float64(res.Committed)
	tps := 0.0
	if res.Elapsed > 0 {
		tps = committed / res.Elapsed.Seconds()
	}
	tbl.Row(wl.name, config, procs, fmt.Sprintf("%.0f", tps), lat.P50, lat.P99,
		fmt.Sprintf("%.3f", float64(db.Snapshot().Syncs)/committed),
		fmt.Sprintf("%.0f", float64(after.Mallocs-before.Mallocs)/committed), res.Aborts)
	return tps, nil
}

// E19Perf sweeps workload × GOMAXPROCS × configuration; every cell's
// equivalence assertion must hold. Scale 1 runs 24-transaction cells at
// GOMAXPROCS {1, 8}, scale >= 2 runs 64-transaction cells at {1, 2, 4, 8}.
// It mutates GOMAXPROCS during the run and restores it before returning.
func E19Perf(o Config) (*metrics.Table, error) {
	ctx := o.ctx()
	procs, txns := []int{1, 2, 4, 8}, 64
	if o.scale() <= 1 {
		procs, txns = []int{1, 8}, 24
	}
	const steps = 6
	workloads := []perfWorkload{
		// Hot spot: every transaction fights over 4 entities.
		genPerfWorkload("hotspot", txns, steps, 4),
		// Low contention: only neighbouring transactions overlap.
		genPerfWorkload("lowcontention", txns, steps, txns*3),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	tbl := metrics.NewTable("E19 engine perf: striped locks + group commit (sync delay 300µs)",
		"workload", "config", "procs", "txns/s", "p50 µs", "p99 µs", "fsync/commit", "allocs/txn", "restarts")
	maxProcs := procs[len(procs)-1]
	var hotBase, hotOpt float64
	for _, wl := range workloads {
		for _, p := range procs {
			for _, config := range []string{"baseline", "optimized"} {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				tps, err := perfCase(ctx, tbl, wl, config, p, o.Seed, o.Telemetry)
				if err != nil {
					return nil, fmt.Errorf("bench: E19 %s/%s@%d: %w", wl.name, config, p, err)
				}
				if wl.name == "hotspot" && p == maxProcs {
					if config == "baseline" {
						hotBase = tps
					} else {
						hotOpt = tps
					}
				}
			}
		}
	}
	tbl.Row("hotspot", "speedup@max", "", metrics.Ratio(hotOpt, hotBase), "", "", "", "", "")
	return tbl, nil
}
