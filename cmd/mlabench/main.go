// Command mlabench regenerates every experiment table in EXPERIMENTS.md.
//
// Usage:
//
//	mlabench [-exp E5] [-scale 2] [-seed 1] [-md]
//	mlabench -exp E19 -scale 1 -telemetry -trace-out trace.json
//
// Without -exp it runs the full suite E1..E22; an -exp that names no
// experiment exits 2 with the list of valid IDs. A runner that finds a
// soundness or equivalence violation returns an error, which exits 1.
// Performance is not measured here: benchmark/ is the one yardstick.
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
	useTel := flag.Bool("telemetry", false, "record spans and counters; print the metrics table at exit")
	traceOut := flag.String("trace-out", "", "write the recorded spans as Chrome trace-event JSON (implies -telemetry)")
	pprofPrefix := flag.String("pprof", "", "write CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	// An -exp that matches nothing is a usage error, not an empty success: a
	// mistyped or renumbered ID must not let a gate pass vacuously.
	exps := bench.All()
	if *exp != "" {
		var ids []string
		var sel []bench.Experiment
		for _, ex := range exps {
			ids = append(ids, ex.ID)
			if ex.ID == *exp {
				sel = append(sel, ex)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "mlabench: unknown experiment %q (valid: %s)\n", *exp, strings.Join(ids, " "))
			return 2
		}
		exps = sel
	}

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

	opts := bench.Config{Scale: *scale, Seed: *seed, Context: ctx, Telemetry: tel}
	failed := 0
	for _, ex := range exps {
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
