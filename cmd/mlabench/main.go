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
// -telemetry records spans from the runs that support tracing (the engine,
// the simulator, the dist bus) and folds their counters into the registry;
// -trace-out exports the spans as Chrome trace-event JSON loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing, and implies -telemetry.
// -pprof PREFIX writes PREFIX.cpu.pprof and PREFIX.heap.pprof for
// `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"mla/internal/bench"
	"mla/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it and the
// telemetry export and pprof stop still run as defers; the return value is
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "run only this experiment (E1..E22)")
	scale := fs.Int("scale", 2, "workload scale multiplier (1 = quick)")
	seed := fs.Int64("seed", 1, "random seed")
	markdown := fs.Bool("md", false, "render tables as markdown")
	useTel := fs.Bool("telemetry", false, "record spans, fold the runs' counters; print the metrics at exit")
	traceOut := fs.String("trace-out", "", "write the recorded spans as Chrome trace-event JSON (implies -telemetry)")
	pprofPrefix := fs.String("pprof", "", "write CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	if err := fs.Parse(args); err != nil {
		return 2
	}

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
			fmt.Fprintf(stderr, "mlabench: unknown experiment %q (valid: %s)\n", *exp, strings.Join(ids, " "))
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
			fmt.Fprintf(stderr, "mlabench: pprof: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "mlabench: pprof: %v\n", err)
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
				fmt.Fprintf(stderr, "mlabench: trace: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "wrote %s (load in ui.perfetto.dev)\n", *traceOut)
			}
		}
		tel.Metrics.WriteText(stdout)
	}()

	opts := bench.Config{Scale: *scale, Seed: *seed, Context: ctx, Telemetry: tel}
	failed := 0
	for _, ex := range exps {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "mlabench: interrupted")
			return 1
		}
		start := time.Now()
		tbl, err := ex.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", ex.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "%s — %s  (%.1fs)\n", ex.ID, ex.Claim, time.Since(start).Seconds())
		if *markdown {
			tbl.RenderMarkdown(stdout)
		} else {
			tbl.Render(stdout)
		}
		fmt.Fprintln(stdout)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
