package main

// The benchmark's contract with BENCHMARK.json, in code: the workloads, the
// end-to-end metrics (printed with -trace 0) and the per-layer metrics
// (printed with -trace 1). spec_test.go asserts the JSON file and these
// tables name the same things with the same units.

type workloadDef struct {
	Name string
	Why  string
	run  func(rc runConfig) (*runReport, error)
}

var workloads = []workloadDef{
	{"serve_durable", "HTTP + fsynced file WAL + checkpoints: the only path a real client takes; wal and serve do nearly all the work, coherent none", runServeDurable},
	{"engine_uniform", "resident engine, sharded 2PL, volatile store, no conflicts: engine/sched/lock/model hot path; the bypass on which WAL, HTTP and closure changes must show nothing", runEngineUniform},
	{"bank_2pl", "Section 4.2 banking mix under 2PL: long audits against short transfers make waits, wounds and restarts; the serializable baseline of the paper's question", runBank2PL},
	{"bank_mla", "the same request list under sched.Preventer in 110-txn epochs: coherent.Online does nearly all the work; tps(bank_mla)/tps(bank_2pl) is the paper's open question", runBankMLA},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd: the bounded metrics, measured with tracing off, on every
// workload. The timed ones take the widest bound the contract allows: the
// reference host is a shared 2-vCPU sandbox whose speed drifts by ±20 % over
// minutes (on a quiet stretch every timed number here repeats within 2-5 %
// on every workload; README "Runs made" has both). A drift that size is a
// property of the host, not of the code, and a tighter bound would only
// turn it into false regressions. Nine of the issue's twelve are NOT here —
// see demoted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_tps", "txn/s", "higher", 0.25},
	{"allocs_per_txn", "count", "lower", 0.10},
}

// demoted maps the issue's end-to-end names that cannot be end-to-end under
// the driver's contract to the per-layer name they are reported under. The
// contract prints every end-to-end metric on every workload, forbids zeros,
// and accepts the benchmark only if every metric's run-to-run spread stays
// inside its bound (at most 25 %) on every workload. Rule: demote, do not
// widen.
//
//   - max_rate_in_slo, restart_s and wal_bytes_per_txn exist only on
//     serve_durable, audit_steps_per_s only where a history is audited;
//   - failed_share is 0 on a healthy run (failures are the result line's
//     `failed` count instead);
//   - lat_p99_us spreads 25-40 % run to run on serve_durable even on a quiet
//     host (its tail is the checkpoint stall, whose fsyncs the sandbox's
//     disk prices differently every run; a p90 was tried and spreads 18 %);
//   - peak_rss_mb spreads 15-30 % on bank_mla (GC pacing over a 20 MB heap);
//   - lat_p50_us and cpu_us_per_txn follow the host's drift about twice as
//     hard as throughput does: in the three self-checks made, p50 spread
//     27.8 % within one set on engine_uniform and CPU per transaction moved
//     38.7 % between two sets on serve_durable, while throughput's worst
//     readings were 22 % and 21.8 %.
var demoted = map[string]string{
	"max_rate_in_slo":   "serve.max_rate_in_slo",
	"restart_s":         "serve.restart_ms",
	"wal_bytes_per_txn": "wal.bytes_per_txn",
	"audit_steps_per_s": "history.audit_steps_per_s",
	"failed_share":      "harness.failed_share",
	"lat_p50_us":        "lat_p50_us",
	"lat_p99_us":        "lat_p99_us",
	"cpu_us_per_txn":    "cpu_us_per_txn",
	"peak_rss_mb":       "peak_rss_mb",
}

// perLayer: one layer each (layer = package name), measured from outside —
// by timing calls into the layer's public functions or reading its public
// Stats()/Snapshot(). Workload counters read 0 on workloads that do not
// exercise the layer. No bounds: these explain end-to-end movement, they do
// not gate it.
var perLayer = []metricDef{
	// whole workload, from the plain pass of the -trace 1 run
	{"lat_p50_us", "us", "lower", 0},
	{"lat_p99_us", "us", "lower", 0},
	{"cpu_us_per_txn", "us", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0},
	// serve
	{"serve.http_overhead_us", "us", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.submit_us", "us", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.budget_denied", "count", "lower", 0},
	{"serve.deadline", "count", "lower", 0},
	{"serve.gate_queued_max", "count", "lower", 0},
	{"serve.max_rate_in_slo", "txn/s", "higher", 0},
	{"serve.ladder_p99_us_at_2000", "us", "lower", 0},
	{"serve.ladder_p99_us_at_3000", "us", "lower", 0},
	{"serve.ladder_p99_us_at_6000", "us", "lower", 0},
	{"serve.restart_ms", "ms", "lower", 0},
	// wal
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.group_commit_us", "us", "lower", 0},
	{"wal.group_commit_8_us", "us", "lower", 0},
	{"wal.flushes_per_txn", "ratio", "lower", 0},
	{"wal.max_batch", "count", "higher", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.checkpoint_ms_at_10k", "ms", "lower", 0},
	{"wal.checkpoint_ms_at_50k", "ms", "lower", 0},
	{"wal.open_ms_at_50k", "ms", "lower", 0},
	// engine
	{"engine.submit_us", "us", "lower", 0},
	{"engine.restarts_per_txn", "ratio", "lower", 0},
	{"engine.lock_wait_share", "ratio", "lower", 0},
	// sched
	{"sched.2pl_cycle_ns", "ns", "lower", 0},
	{"sched.waits_per_txn", "ratio", "lower", 0},
	{"sched.wounds_per_txn", "ratio", "lower", 0},
	{"sched.prevent_cycle_us", "us", "lower", 0},
	// lock
	{"lock.acquire_release_ns", "ns", "lower", 0},
	{"lock.contended_ns", "ns", "lower", 0},
	// coherent
	{"coherent.add_step_us_at_256", "us", "lower", 0},
	{"coherent.add_step_us_at_1024", "us", "lower", 0},
	{"coherent.preview_us_at_256", "us", "lower", 0},
	{"coherent.preview_us_at_1024", "us", "lower", 0},
	{"coherent.rebuild_ms_at_1024", "ms", "lower", 0},
	{"coherent.growth_ratio", "ratio", "lower", 0},
	// model
	{"model.intern_ns", "ns", "lower", 0},
	// history
	{"history.record_ns", "ns", "lower", 0},
	{"history.spool_append_us", "us", "lower", 0},
	{"history.check_ms_at_1k", "ms", "lower", 0},
	{"history.check_ms_at_4k", "ms", "lower", 0},
	{"history.audit_steps_per_s", "steps/s", "higher", 0},
	// shard, net: recorded, mapped to no end-to-end metric until a sharded
	// workload exists.
	{"shard.group_submit_local_us", "us", "lower", 0},
	{"shard.group_submit_cross_us", "us", "lower", 0},
	{"shard.group_allocs_per_txn", "count", "lower", 0},
	{"net.deliver_ns", "ns", "lower", 0},
	// harness
	{"gen.late_p99_us", "us", "lower", 0},
	{"harness.failed_share", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.self_sum_ratio", "ratio", "lower", 0},
	{"trace.client_self_us", "us", "lower", 0},
	{"trace.serve_self_us", "us", "lower", 0},
	{"trace.engine_self_us", "us", "lower", 0},
	{"trace.sched_self_us", "us", "lower", 0},
	{"trace.store_self_us", "us", "lower", 0},
}
