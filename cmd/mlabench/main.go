// Command mlabench regenerates every experiment table in EXPERIMENTS.md.
//
// Usage:
//
//	mlabench [-exp E5] [-scale 2] [-seed 1]
//	mlabench -perf [-out BENCH_4.json] [-quick]
//	mlabench -perf -quick -telemetry -trace-out trace.json
//	mlabench -rate 120000 -duration 1s -slo-p99 20ms
//	mlabench -rate 5000 -base http://127.0.0.1:7070
//	mlabench -rate 60000 -history BENCH_HISTORY.json -commit $(git rev-parse --short HEAD) -gate
//	mlabench -rate 60000 -shards 4 -history BENCH_HISTORY.json -gate
//	mlabench -shardperf -shards 4 -scaling-min 1.5 -out BENCH_SHARD.json
//
// Without -exp it runs the full suite E1..E21. With -perf it runs the
// engine performance sweep (E19's harness) instead, prints the table, and
// writes the JSON report; it exits nonzero if the optimized engine paths
// changed any commit outcome relative to the unoptimized ones.
//
// With -rate (or -load) it runs the open-loop load cell: Poisson arrivals
// at the given rate against the in-process engine — or, with -base, a
// running mlaserve over real HTTP — reporting coordinated-omission-safe
// p50/p99/p99.9 and throughput at the -slo-p99 objective. -closed switches
// to the classic closed loop for comparison. -shards N drives the cell
// against the partitioned store (shard.Group) instead of the single
// resident engine. -history appends the report to BENCH_HISTORY.json keyed
// by -commit; -gate additionally compares against the previous recorded
// run of the same kind AND shard count (sharded and unsharded cells keep
// independent lineages in one file) and exits nonzero on a >10% throughput
// or p99 regression.
//
// With -shardperf it sweeps shard count × GOMAXPROCS over the shard-affine
// hot-spot workload on the partitioned store: -shards N pins the sweep to
// {1, N} (the CI matrix leg; default {1, 2, 4}), every cell is gated on
// decision equivalence against the schedule-independent expected state,
// and -scaling-min S additionally fails the run when max-shards throughput
// is below S× the 1-shard baseline at max procs (enforced only on hosts
// with >1 CPU — a single-CPU host cannot exhibit shard parallelism, so
// the floor is reported there but not fatal). -procs P1,P2 overrides the
// GOMAXPROCS points (default 1,4).
//
// -telemetry records spans and counters from the runs that support tracing
// (the engine, the simulator, the dist bus); -trace-out exports the spans
// as Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, and implies -telemetry. -pprof PREFIX writes
// PREFIX.cpu.pprof and PREFIX.heap.pprof for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mla/internal/bench"
	"mla/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// run keeps the real logic defer-safe: os.Exit in main would skip the
// telemetry export and pprof stop otherwise.
func run() int {
	exp := flag.String("exp", "", "run only this experiment (E1..E22)")
	scale := flag.Int("scale", 2, "workload scale multiplier (1 = quick)")
	seed := flag.Int64("seed", 1, "random seed")
	markdown := flag.Bool("md", false, "render tables as markdown")
	perf := flag.Bool("perf", false, "run the engine performance sweep and write the JSON report")
	out := flag.String("out", "", "output path for the JSON report (default BENCH_4.json for -perf, none for -rate)")
	quick := flag.Bool("quick", false, "-perf/-rate: smaller workloads, GOMAXPROCS {1,8} only")
	load := flag.Bool("load", false, "run the open-loop load cell (implied by -rate)")
	rate := flag.Float64("rate", 0, "open-loop offered rate, txns/second (runs the load cell)")
	duration := flag.Duration("duration", 0, "load cell length (rate×duration txns; default 1s, quick 250ms)")
	txns := flag.Int("txns", 0, "load cell: explicit transaction count (overrides -duration)")
	workload := flag.String("workload", "lowcontention", "load cell shape: lowcontention | hotspot")
	workers := flag.Int("workers", 0, "load cell: worker pool bound (default 32)")
	closed := flag.Bool("closed", false, "load cell: closed loop (CO-unsafe; comparison only)")
	shards := flag.Int("shards", 0, "partition the entity store: -rate drives a shard.Group of N shards; -shardperf sweeps {1,N}")
	shardPerf := flag.Bool("shardperf", false, "run the shards × GOMAXPROCS sweep on the partitioned store and write the JSON report")
	scalingMin := flag.Float64("scaling-min", 0, "-shardperf: fail unless max-shards throughput ≥ this × the 1-shard baseline (0 = report only)")
	procsFlag := flag.String("procs", "", "-shardperf: comma-separated GOMAXPROCS points (default 1,4)")
	sloP99 := flag.Duration("slo-p99", 0, "load cell: p99 latency objective; a miss exits nonzero")
	base := flag.String("base", "", "load cell: drive a running mlaserve at this base URL instead of the in-process engine")
	historyPath := flag.String("history", "", "append the report to this BENCH_HISTORY.json")
	commit := flag.String("commit", "unknown", "commit key for the -history entry")
	gate := flag.Bool("gate", false, "with -history: fail on >10% throughput/p99 regression vs the last recorded run")
	useTel := flag.Bool("telemetry", false, "record spans and counters; print the metrics table at exit")
	traceOut := flag.String("trace-out", "", "write the recorded spans as Chrome trace-event JSON (implies -telemetry)")
	pprofPrefix := flag.String("pprof", "", "write CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	// ^C cancels the in-flight simulation and skips the rest of the suite.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var tel *telemetry.Telemetry
	if *useTel || *traceOut != "" {
		tel = telemetry.New()
	}
	if *pprofPrefix != "" {
		stop, err := telemetry.StartPprof(*pprofPrefix)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: pprof: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "mlabench: pprof: %v\n", err)
			}
		}()
	}
	// Export telemetry on every path out, including failures: a trace of a
	// failed run is the one you actually want to look at.
	defer func() {
		if tel == nil {
			return
		}
		if *traceOut != "" {
			if err := tel.WriteTrace(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "mlabench: trace: %v\n", err)
			} else {
				fmt.Printf("wrote %s (load in ui.perfetto.dev)\n", *traceOut)
			}
		}
		tel.Table().Render(os.Stdout)
	}()

	// record appends rep to the history file and runs the regression gate;
	// it returns a nonzero exit code on gate failure.
	record := func(rep *bench.Report) int {
		if *historyPath == "" {
			if *gate {
				fmt.Fprintln(os.Stderr, "mlabench: -gate needs -history")
				return 1
			}
			return 0
		}
		hist, err := bench.LoadHistory(*historyPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: history: %v\n", err)
			return 1
		}
		prev := hist.LastFor(rep.Kind, rep.Shards)
		if err := hist.Append(*historyPath, *commit, rep, time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: history: %v\n", err)
			return 1
		}
		fmt.Printf("recorded %s entry %s in %s\n", rep.Kind, *commit, *historyPath)
		if !*gate {
			return 0
		}
		if prev == nil {
			fmt.Println("bench gate: no previous entry, pass by default")
			return 0
		}
		if bad := bench.Gate(prev.Report, rep); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "mlabench: bench gate FAILED vs %s:\n", prev.Commit)
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "  %s\n", b)
			}
			return 1
		}
		fmt.Printf("bench gate: pass vs %s\n", prev.Commit)
		return 0
	}

	if *perf {
		if *out == "" {
			*out = "BENCH_4.json"
		}
		rep, err := bench.PerfRun(ctx, bench.NewConfig(
			bench.WithSeed(*seed), bench.WithQuick(*quick), bench.WithTelemetry(tel)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: perf: %v\n", err)
			return 1
		}
		rep.Table().Render(os.Stdout)
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: perf: write %s: %v\n", *out, err)
			return 1
		}
		fmt.Printf("wrote %s (hotspot speedup %.2fx at max procs)\n", *out, rep.HotspotSpeedup)
		if !rep.EquivalenceOK {
			fmt.Fprintln(os.Stderr, "mlabench: perf: EQUIVALENCE FAILED — optimized paths changed commit outcomes")
			return 1
		}
		return record(rep)
	}

	if *shardPerf {
		if *out == "" {
			*out = "BENCH_SHARD.json"
		}
		opts := []bench.Option{
			bench.WithSeed(*seed), bench.WithQuick(*quick), bench.WithContext(ctx),
			bench.WithShards(*shards), bench.WithWorkers(*workers),
		}
		if *procsFlag != "" {
			var pts []int
			for _, s := range strings.Split(*procsFlag, ",") {
				p, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || p < 1 {
					fmt.Fprintf(os.Stderr, "mlabench: -procs: bad GOMAXPROCS point %q\n", s)
					return 1
				}
				pts = append(pts, p)
			}
			opts = append(opts, bench.WithProcs(pts...))
		}
		rep, err := bench.ShardRun(ctx, bench.NewConfig(opts...))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: shardperf: %v\n", err)
			return 1
		}
		rep.Table().Render(os.Stdout)
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: shardperf: write %s: %v\n", *out, err)
			return 1
		}
		fmt.Printf("wrote %s (shard speedup %.2fx: %d shards vs 1 at max procs)\n", *out, rep.ShardSpeedup, rep.Shards)
		if !rep.EquivalenceOK {
			fmt.Fprintln(os.Stderr, "mlabench: shardperf: EQUIVALENCE FAILED — sharded cells diverged from the unsharded expected state")
			return 1
		}
		if *scalingMin > 0 && rep.ShardSpeedup < *scalingMin {
			// The floor asserts that N shards beat 1 shard in wall-clock
			// time, which requires hardware parallelism: on a single-CPU
			// host every GOMAXPROCS point executes serially and no shard
			// count can scale, so enforcing the floor there only measures
			// the machine. Report the miss, fail only where it can bind.
			if runtime.NumCPU() > 1 {
				fmt.Fprintf(os.Stderr, "mlabench: shardperf: SCALING FAILED — %.2fx < required %.2fx\n", rep.ShardSpeedup, *scalingMin)
				return 1
			}
			fmt.Printf("shardperf: scaling floor %.2fx not enforced (measured %.2fx): single-CPU host cannot exhibit shard parallelism\n", *scalingMin, rep.ShardSpeedup)
		}
		return record(rep)
	}

	if *load || *rate > 0 {
		opts := []bench.Option{
			bench.WithSeed(*seed), bench.WithQuick(*quick), bench.WithContext(ctx),
			bench.WithRate(*rate), bench.WithDuration(*duration), bench.WithTxns(*txns),
			bench.WithWorkload(*workload), bench.WithWorkers(*workers), bench.WithSLO(*sloP99),
			bench.WithShards(*shards),
		}
		if *closed {
			opts = append(opts, bench.WithClosedLoop())
		}
		cfg := bench.NewConfig(opts...)
		var rep *bench.Report
		var err error
		if *base != "" {
			if *shards > 1 {
				fmt.Fprintln(os.Stderr, "mlabench: -shards applies to in-process cells only (-base drives a remote server)")
				return 1
			}
			rep, err = bench.LoadRunHTTP(ctx, *base, cfg)
		} else {
			rep, err = bench.LoadRun(ctx, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlabench: load: %v\n", err)
			return 1
		}
		rep.Table().Render(os.Stdout)
		if *out != "" {
			if err := rep.WriteJSON(*out); err != nil {
				fmt.Fprintf(os.Stderr, "mlabench: load: write %s: %v\n", *out, err)
				return 1
			}
			fmt.Printf("wrote %s\n", *out)
		}
		if !rep.EquivalenceOK {
			fmt.Fprintln(os.Stderr, "mlabench: load: EQUIVALENCE FAILED — final state diverged from acked increments")
			return 1
		}
		for _, c := range rep.Load {
			if !c.SLOMet {
				fmt.Fprintf(os.Stderr, "mlabench: load: SLO MISS — %s/%s p99 %dµs > objective %dµs\n",
					c.Workload, c.Mode, c.P99US, c.SLOP99US)
				return 1
			}
		}
		return record(rep)
	}

	opts := bench.Config{Scale: *scale, Seed: *seed, Context: ctx, Telemetry: tel}
	failed := 0
	for _, ex := range bench.All() {
		if *exp != "" && ex.ID != *exp {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "mlabench: interrupted")
			return 1
		}
		start := time.Now()
		tbl, err := ex.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ex.ID, err)
			failed++
			continue
		}
		fmt.Printf("%s — %s  (%.1fs)\n", ex.ID, ex.Claim, time.Since(start).Seconds())
		if *markdown {
			tbl.RenderMarkdown(os.Stdout)
		} else {
			tbl.Render(os.Stdout)
		}
		fmt.Println()
	}
	if failed > 0 {
		return 1
	}
	return 0
}
