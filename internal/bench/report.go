package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"mla/internal/metrics"
)

// Schema is the versioned identifier every bench artifact carries:
// BENCH_4.json, the open-loop load cells, and BENCH_HISTORY.json entries
// all serialize a Report with this string, so downstream tooling
// (scripts/bench_gate.sh, CI artifact diffing) parses exactly one format.
const Schema = "mla-bench/v1"

// PerfMeasurement is one (workload, configuration, GOMAXPROCS) cell of the
// perf sweep; field names are the BENCH_4.json schema.
type PerfMeasurement struct {
	Workload        string  `json:"workload"`          // "hotspot" | "lowcontention"
	Config          string  `json:"config"`            // "baseline" | "optimized" | "sharded"
	Shards          int     `json:"shards,omitempty"`  // partition count (shardperf cells; 0 = unsharded)
	Procs           int     `json:"gomaxprocs"`        // runtime.GOMAXPROCS during the run
	Txns            int     `json:"txns"`              // transactions offered
	Committed       int     `json:"committed"`         // transactions committed (must equal txns)
	Restarts        int     `json:"restarts"`          // rollback-and-retry count
	ThroughputTPS   float64 `json:"throughput_tps"`    // committed / elapsed
	P50LatencyUS    int64   `json:"latency_p50_us"`    // per-txn begin→durable-commit, median
	P99LatencyUS    int64   `json:"latency_p99_us"`    // …99th percentile
	Fsyncs          int64   `json:"fsyncs"`            // device syncs over the whole run
	FsyncsPerCommit float64 `json:"fsyncs_per_commit"` // the group-commit amortization
	AllocsPerTxn    float64 `json:"allocs_per_txn"`    // heap allocations per committed txn
	ElapsedUS       int64   `json:"elapsed_us"`        // wall clock of the run
	// CrossShardFrac is the fraction of committed transactions that spanned
	// shards and hence paid the multi-shot commit (shardperf cells only).
	CrossShardFrac float64 `json:"cross_shard_frac,omitempty"`
}

// PerfRecovery summarizes the crash-recovery cell that runs alongside the
// sweep when telemetry is enabled, so an exported trace always contains
// recovery spans. It is a separate summary field — not a Measurements row —
// to keep the row schema stable.
type PerfRecovery struct {
	Crashes   int   `json:"crashes"`
	Rounds    int   `json:"rounds"`
	TornTotal int   `json:"torn_total"`
	Committed int   `json:"committed"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// LoadCell is one open- or closed-loop load run against the in-process
// engine (LoadRun) or a served endpoint. Latency percentiles are
// coordinated-omission-safe in open-loop cells: they are measured from each
// transaction's scheduled Poisson arrival, so time spent queued behind a
// stalled server counts.
type LoadCell struct {
	Workload      string  `json:"workload"`         // "lowcontention" | "hotspot"
	Mode          string  `json:"mode"`             // "open" | "closed"
	Shards        int     `json:"shards,omitempty"` // partition count (0 = single resident engine)
	RateTPS       float64 `json:"rate_tps"`         // offered arrival rate (open loop)
	Workers       int     `json:"workers"`          // pool worker bound
	Txns          int     `json:"txns"`
	Committed     int     `json:"committed"`
	Restarts      int     `json:"restarts"`
	ThroughputTPS float64 `json:"throughput_tps"`
	P50US         int64   `json:"latency_p50_us"`
	P99US         int64   `json:"latency_p99_us"`
	P999US        int64   `json:"latency_p999_us"`
	MaxUS         int64   `json:"latency_max_us"`
	SLOP99US      int64   `json:"slo_p99_us,omitempty"` // objective, 0 = none
	SLOMet        bool    `json:"slo_met"`              // p99 ≤ objective (true when none set)
	AllocsPerTxn  float64 `json:"allocs_per_txn"`
	ElapsedUS     int64   `json:"elapsed_us"`
}

// Report is the single mla-bench/v1 artifact shared by the perf sweep
// (`mlabench -perf` → BENCH_4.json), the open-loop load cells
// (`mlabench -rate` → load section), and the BENCH_HISTORY.json entries the
// bench gate compares. Kind says which sections are populated.
type Report struct {
	Schema string `json:"schema"` // always Schema ("mla-bench/v1")
	Kind   string `json:"kind"`   // "perf" | "load" | "shardperf"
	Seed   int64  `json:"seed"`
	Quick  bool   `json:"quick"`
	// Shards is the partition count the run was configured with (0 =
	// unsharded). Part of the history-matching signature: sharded and
	// unsharded cells gate against their own lineage, never each other.
	Shards int `json:"shards,omitempty"`
	// EquivalenceOK reports that every run reached the schedule-independent
	// expected state — the decision-equivalence gate for every kind.
	EquivalenceOK bool `json:"equivalence_ok"`

	// Perf sweep section (Kind "perf").
	SyncDelayUS    int64             `json:"sync_delay_us,omitempty"`      // simulated device sync latency
	HotspotSpeedup float64           `json:"hotspot_speedup_8p,omitempty"` // optimized/baseline throughput, hotspot @ max procs
	ShardSpeedup   float64           `json:"shard_speedup,omitempty"`      // max-shards/1-shard throughput @ max procs (Kind "shardperf")
	Recovery       *PerfRecovery     `json:"recovery,omitempty"`           // telemetry-only crash-recovery cell
	Measurements   []PerfMeasurement `json:"measurements,omitempty"`

	// Load section (Kind "load").
	Load []LoadCell `json:"load,omitempty"`
}

// Table renders the report for terminal output.
func (r *Report) Table() *metrics.Table {
	if r.Kind == "load" {
		tbl := metrics.NewTable("open-loop load: engine under Poisson arrivals (CO-safe latency)",
			"workload", "mode", "rate/s", "workers", "txns", "txns/s", "p50 µs", "p99 µs", "p99.9 µs", "allocs/txn", "slo")
		for _, c := range r.Load {
			slo := "-"
			if c.SLOP99US > 0 {
				if c.SLOMet {
					slo = fmt.Sprintf("≤%dms ok", c.SLOP99US/1000)
				} else {
					slo = fmt.Sprintf("≤%dms MISS", c.SLOP99US/1000)
				}
			}
			tbl.Row(c.Workload, c.Mode, fmt.Sprintf("%.0f", c.RateTPS), c.Workers, c.Txns,
				fmt.Sprintf("%.0f", c.ThroughputTPS), c.P50US, c.P99US, c.P999US,
				fmt.Sprintf("%.0f", c.AllocsPerTxn), slo)
		}
		return tbl
	}
	if r.Kind == "shardperf" {
		tbl := metrics.NewTable("partitioned store: shards × GOMAXPROCS on the shard-affine hot spot",
			"workload", "shards", "procs", "txns/s", "p50 µs", "p99 µs", "cross-shard", "allocs/txn", "restarts")
		for _, m := range r.Measurements {
			tbl.Row(m.Workload, m.Shards, m.Procs, fmt.Sprintf("%.0f", m.ThroughputTPS),
				m.P50LatencyUS, m.P99LatencyUS, fmt.Sprintf("%.2f", m.CrossShardFrac),
				fmt.Sprintf("%.0f", m.AllocsPerTxn), m.Restarts)
		}
		tbl.Row("speedup@max", fmt.Sprintf("%d vs 1", r.Shards), "", fmt.Sprintf("%.2fx", r.ShardSpeedup), "", "", "", "", "")
		return tbl
	}
	tbl := metrics.NewTable("E19 engine perf: striped locks + group commit (sync delay 300µs)",
		"workload", "config", "procs", "txns/s", "p50 µs", "p99 µs", "fsync/commit", "allocs/txn", "restarts")
	for _, m := range r.Measurements {
		tbl.Row(m.Workload, m.Config, m.Procs, fmt.Sprintf("%.0f", m.ThroughputTPS),
			m.P50LatencyUS, m.P99LatencyUS, fmt.Sprintf("%.3f", m.FsyncsPerCommit),
			fmt.Sprintf("%.0f", m.AllocsPerTxn), m.Restarts)
	}
	tbl.Row("hotspot", "speedup@max", "", fmt.Sprintf("%.2fx", r.HotspotSpeedup), "", "", "", "", "")
	if r.Recovery != nil {
		tbl.Row("recovery", fmt.Sprintf("%d crashes", r.Recovery.Crashes), "",
			fmt.Sprintf("%d rounds", r.Recovery.Rounds), "", "", "", "",
			fmt.Sprintf("torn %d", r.Recovery.TornTotal))
	}
	return tbl
}

// WriteJSON serializes the report (the BENCH_4.json artifact).
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
