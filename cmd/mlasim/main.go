// Command mlasim runs one simulation of the migrating-transaction model
// under a chosen concurrency control and prints throughput, latency,
// control statistics, and the application invariants.
//
// Usage:
//
//	mlasim [-workload bank|sessions|cad|conv] [-config workload.json]
//	       [-control prevent|detect|2pl|tso|serial|none|dist|shard]
//	       [-txns 24] [-seed 1] [-partial] [-engine] [-check] [-history out.json]
//	       [-crashes 0] [-tear 2] [-errrate 0]
//	       [-shards 4]
//	       [-delay 5] [-loss 0] [-reorder 0] [-partition 0] [-heal 0] [-procfail 0]
//
// -config runs a user-defined workload (see internal/config for the JSON
// format) instead of a generated one.
//
// -partial enables breakpoint-granular rollback (the paper's smaller unit
// of recovery); -engine executes the workload on the concurrent engine
// (goroutine per transaction, wall-clock timing) instead of the
// deterministic simulator; -check verifies the admitted execution against
// Theorem 2 offline.
//
// -history writes the run as an mla-history event log, the one format
// mlacheck reads (`mlacheck -witness out.json` judges it with both
// deciders). On the engine it records live — every attempt, abort, and
// commit appears as an event, and the run exits 1 unless the history
// replays to the run's committed set; on the simulator it materializes the
// committed execution.
//
// -crashes and -errrate enable the deterministic fault-injection layer
// (engine only): -crashes kills the system that many times at fixed
// WAL-append counts, tearing -tear records off the durable tail each time,
// and recovers between rounds; -errrate injects transient step errors the
// engine retries with capped exponential backoff.
//
// -control dist runs the multi-node prevention control (internal/dist) on
// its simulated message bus, simulator only. -delay is the one-hop bus
// latency; the chaos flags schedule failures: -loss drops each message
// with the given probability, -reorder delays it (60 extra units) with the
// given probability, -partition splits the processors into two halves at
// that simulated time (healing at -heal, default partition+300), and
// -procfail crashes that many processors in sequence, each rejoining 400
// units later. Every chaos run still reports the invariants, and -check
// verifies Theorem 2 on the admitted execution.
//
// -control shard runs the partitioned entity store (internal/shard) on the
// same simulated bus, simulator only: -shards per-shard lock tables and WAL
// disciplines at their owning processors, lock requests/grants and per-shot
// participant votes on typed messages, cross-shard deadlocks resolved by
// edge-chasing probes, crashes recovered by epoch-fenced anti-entropy
// resync. The same -delay and chaos flags apply, with -partition splitting
// and -procfail crashing the shard processors.
//
// An interrupt (^C) cancels the run promptly — both executors stop and
// report the cancellation instead of running to completion.
//
// -telemetry records spans and counters from the run (engine lock waits,
// commit groups, recoveries; simulator transactions; dist bus messages) and
// prints the aggregated metrics table at exit. -trace-out writes the spans
// as Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev), and
// implies -telemetry. -pprof PREFIX writes PREFIX.cpu.pprof and
// PREFIX.heap.pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"

	"mla/internal/bank"
	"mla/internal/breakpoint"
	"mla/internal/cad"
	"mla/internal/coherent"
	"mla/internal/config"
	"mla/internal/conv"
	"mla/internal/dist"
	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/shard"
	"mla/internal/sim"
	"mla/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printClosure reports, for the closure controls (prevent, detect), how
// wide the coherent closure is when the run ends: with every committed
// transaction sealed (Stats.Sealed) it holds only what was still in flight.
func printClosure(stdout io.Writer, c sched.Control) {
	if w, ok := c.(interface {
		ClosureSteps() int
		ClosureSlots() int
	}); ok {
		fmt.Fprintf(stdout, "closure:        %d live steps in %d slots\n", w.ClosureSteps(), w.ClosureSlots())
	}
}

// run is main without the process exit, so tests can drive it and the
// telemetry export and pprof stop still run as defers; the return value is
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "bank", "bank, sessions, cad, or conv")
	configPath := fs.String("config", "", "run a JSON-defined workload instead (see internal/config)")
	control := fs.String("control", "prevent", "prevent, prevent-direct, detect, 2pl, 2pl-sharded, tso, serial, none, dist, or shard")
	txns := fs.Int("txns", 24, "number of main transactions (transfers / sessions / modifications / conversations)")
	seed := fs.Int64("seed", 1, "workload seed")
	partial := fs.Bool("partial", false, "enable breakpoint-granular partial recovery")
	useEngine := fs.Bool("engine", false, "run on the concurrent engine instead of the simulator")
	check := fs.Bool("check", false, "verify the execution against Theorem 2")
	historyOut := fs.String("history", "", "write the run's event history (mla-history JSON, the format mlacheck reads) to this file")
	crashes := fs.Int("crashes", 0, "engine only: inject this many crashes on a WAL-backed store, recovering between rounds")
	tear := fs.Int("tear", 2, "records torn off the durable tail at each injected crash")
	errRate := fs.Float64("errrate", 0, "engine only: transient step-error rate in [0,1]")
	shards := fs.Int("shards", 4, "shard control: partition count (per-shard lock tables on the simulated bus)")
	delay := fs.Int64("delay", 5, "dist/shard controls: one-hop bus latency in simulated time units")
	loss := fs.Float64("loss", 0, "dist/shard controls: per-message drop probability in [0,1]")
	reorder := fs.Float64("reorder", 0, "dist/shard controls: per-message extra-delay probability in [0,1] (60 extra units, reorders)")
	partTime := fs.Int64("partition", 0, "dist/shard controls: split the processors into two halves at this time (0 = never)")
	healTime := fs.Int64("heal", 0, "dist/shard controls: heal the partition at this time (0 = partition+300)")
	procFail := fs.Int("procfail", 0, "dist/shard controls: crash this many processors in sequence, each rejoining 400 units later")
	useTel := fs.Bool("telemetry", false, "record spans and counters; print the metrics table at exit")
	telOut := fs.String("trace-out", "", "write recorded spans as Chrome trace-event JSON (implies -telemetry)")
	pprofPrefix := fs.String("pprof", "", "write CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every usage rule is checked before the first side effect (the profile
	// file, the telemetry export), so a usage error leaves nothing behind.
	busCtl := *control == "dist" || *control == "shard"
	kind, kindErr := sched.ParseControlKind(*control)
	usage := ""
	switch {
	case *configPath == "" && !slices.Contains([]string{"bank", "sessions", "conv", "cad"}, *workload):
		usage = fmt.Sprintf("unknown workload %q", *workload)
	case !busCtl && kindErr != nil:
		usage = fmt.Sprintf("unknown control %q", *control)
	case *control == "shard" && *shards < 1:
		usage = "-shards must be at least 1"
	case !busCtl && (*loss > 0 || *reorder > 0 || *partTime > 0 || *healTime > 0 || *procFail > 0):
		usage = "-loss, -reorder, -partition, -heal, and -procfail apply to -control dist and shard only"
	case busCtl && *useEngine:
		usage = fmt.Sprintf("-control %s is simulator-only (the engine has no message-bus clock)", *control)
	case !*useEngine && (*crashes > 0 || *errRate > 0):
		usage = "-crashes and -errrate require -engine (the simulator's crash path is sim.RunWithCrashes)"
	case *useEngine && *partial:
		usage = "-partial is simulator-only (the engine rolls back whole transactions)"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "mlasim:", usage)
		return 2
	}

	var tel *telemetry.Telemetry
	if *useTel || *telOut != "" {
		tel = telemetry.New()
	}
	if *pprofPrefix != "" {
		stop, err := telemetry.StartPprof(*pprofPrefix)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim: pprof:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "mlasim: pprof:", err)
			}
		}()
	}
	// Export telemetry on every path out, including failures: the trace of
	// a failed run is the one worth looking at.
	defer func() {
		if tel == nil {
			return
		}
		if *telOut != "" {
			if err := tel.WriteTrace(*telOut); err != nil {
				fmt.Fprintln(stderr, "mlasim: trace-out:", err)
			} else {
				fmt.Fprintf(stdout, "spans written:  %s (load in ui.perfetto.dev)\n", *telOut)
			}
		}
		tel.Table().Render(stdout)
	}()

	var (
		programs []model.Program
		n        *nest.Nest
		spec     breakpoint.Spec
		init     map[model.EntityID]model.Value
		// report checks application invariants over the surviving execution
		// and final store — shared by the simulator and engine paths.
		report func(model.Execution, map[model.EntityID]model.Value)
	)
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim:", err)
			return 1
		}
		wl, err := config.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "mlasim:", err)
			return 1
		}
		programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
		report = func(exec model.Execution, _ map[model.EntityID]model.Value) {
			if err := exec.Validate(init); err != nil {
				fmt.Fprintf(stdout, "TRACE INVALID:  %v\n", err)
			}
		}
		*workload = "config:" + *configPath
	} else {
		switch *workload {
		case "bank":
			p := bank.DefaultParams()
			p.Transfers = *txns
			p.Seed = *seed
			wl := bank.Generate(p)
			programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
			report = func(exec model.Execution, final map[model.EntityID]model.Value) {
				inv := wl.Check(exec, final)
				fmt.Fprintf(stdout, "conservation:   %v (total %d)\n", inv.ConservationOK, inv.Expected)
				fmt.Fprintf(stdout, "audits exact:   %d, inexact: %d\n", inv.AuditsExact, inv.AuditsInexact)
				if inv.TraceValid != nil {
					fmt.Fprintf(stdout, "TRACE INVALID:  %v\n", inv.TraceValid)
				}
			}
		case "sessions":
			p := bank.DefaultSessionParams()
			p.Sessions = *txns
			p.Seed = *seed
			wl := bank.GenerateSessions(p)
			programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
			report = func(exec model.Execution, final map[model.EntityID]model.Value) {
				inv := wl.Check(exec, final)
				fmt.Fprintf(stdout, "conservation:   %v (total %d)\n", inv.ConservationOK, inv.Expected)
				fmt.Fprintf(stdout, "audits exact:   %d, inexact: %d\n", inv.AuditsExact, inv.AuditsInexact)
				if inv.TraceValid != nil {
					fmt.Fprintf(stdout, "TRACE INVALID:  %v\n", inv.TraceValid)
				}
			}
		case "conv":
			p := conv.DefaultParams()
			p.Conversations = *txns
			p.Seed = *seed
			wl := conv.Generate(p)
			programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
			report = func(_ model.Execution, final map[model.EntityID]model.Value) {
				out := wl.Check(final)
				fmt.Fprintf(stdout, "conversations:  %d completed, %d failed\n", out.Completed, out.Failed)
			}
		case "cad":
			p := cad.DefaultParams()
			p.Mods = *txns
			p.Seed = *seed
			wl := cad.Generate(p)
			programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
			report = func(exec model.Execution, final map[model.EntityID]model.Value) {
				inv := wl.Check(exec, final)
				fmt.Fprintf(stdout, "totals consistent: %v\n", inv.TotalsConsistent)
				fmt.Fprintf(stdout, "snapshots clean:   %d, dirty: %d\n", inv.SnapshotsClean, inv.SnapshotsDirty)
				if inv.TraceValid != nil {
					fmt.Fprintf(stdout, "TRACE INVALID:     %v\n", inv.TraceValid)
				}
			}
		}
	}

	// busChaos builds the shared chaos schedule for the bus-backed controls
	// over the given processor population.
	busChaos := func(procs int) fault.Plan {
		plan := fault.Plan{
			Seed:          *seed,
			NetDropRate:   *loss,
			NetDelayRate:  *reorder,
			NetExtraDelay: 60,
		}
		if *partTime > 0 {
			h := *healTime
			if h == 0 {
				h = *partTime + 300
			}
			plan.Partitions = []fault.Partition{{At: *partTime, Heal: h}}
		}
		for i := 0; i < *procFail; i++ {
			at := int64(150 * (i + 1))
			plan.ProcCrashes = append(plan.ProcCrashes, fault.ProcCrash{
				Proc: (i + 1) % procs, At: at, Rejoin: at + 400,
			})
		}
		return plan
	}

	// Controls are volatile: the crash-recovery path builds a fresh one per
	// round, everything else uses a single instance.
	var distCtl *dist.Preventer
	var shardCtl *shard.SimControl
	mkCtl := func() (sched.Control, error) {
		switch *control {
		case "dist":
			procs := sim.DefaultConfig().Processors
			distCtl = dist.NewNet(n, spec, dist.Params{
				Procs:  procs,
				Owner:  sim.OwnerFunc(procs),
				Delay:  *delay,
				Faults: fault.New(busChaos(procs)),
			})
			return distCtl, nil
		case "shard":
			shardCtl = shard.NewSimControl(shard.SimParams{
				Shards: *shards,
				Delay:  *delay,
				Faults: fault.New(busChaos(*shards)),
				Nest:   n,
			})
			return shardCtl, nil
		}
		return sched.New(kind, n, spec)
	}
	c, err := mkCtl()
	if err != nil {
		fmt.Fprintln(stderr, "mlasim:", err)
		return 2
	}
	if tel != nil && distCtl != nil {
		distCtl.AttachTelemetry(tel)
	}

	// -history records live on the engine (every attempt, abort, and
	// injected crash lands in the event log); the simulator path
	// materializes the committed execution instead, since the simulator
	// reports only surviving steps. recObs stays a nil interface when
	// recording is off so engine.Tee drops it.
	var rec *history.Recorder
	var recObs engine.Observer
	if *historyOut != "" && *useEngine {
		rec = history.NewRecorder(n)
		recObs = rec
	}

	// ^C cancels the run: both executors take the context and stop promptly.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var (
		exec  model.Execution
		final map[model.EntityID]model.Value
	)
	if *useEngine && (*crashes > 0 || *errRate > 0) {
		var ev engine.EventCounts
		appends := make([]int64, *crashes)
		for i := range appends {
			appends[i] = int64(10 * (i + 1))
		}
		plan := engine.CrashPlan{
			Cfg: engine.Config{
				Seed:     *seed,
				Observer: engine.Tee(&ev, engine.NewTelemetryObserver(tel, "mlasim engine"), recObs),
			},
			Spec: spec,
			Init: init,
			Faults: fault.Plan{
				Seed:          *seed,
				CrashAppends:  appends,
				TearTail:      *tear,
				StepErrorRate: *errRate,
			},
			// The first mkCtl call succeeded, so every later one does.
			NewControl: func() sched.Control { c, _ := mkCtl(); return c },
		}
		res, err := engine.RunWithCrashes(ctx, plan, programs)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim:", err)
			return 1
		}
		exec, final = res.Exec, res.Final
		fmt.Fprintf(stdout, "workload=%s control=%s txns=%d seed=%d executor=engine+faults\n", *workload, c.Name(), *txns, *seed)
		fmt.Fprintf(stdout, "committed:      %d (%d gave up) across %d rounds\n", res.Committed, res.GaveUp, res.Rounds)
		fmt.Fprintf(stdout, "crashes:        %d (%d records torn, %d txn attempts redone)\n", res.Crashes, res.TornTotal, res.RedoneTxns)
		fmt.Fprintf(stdout, "faults:         %d transient step errors injected, %d restarts\n", res.FaultsInjected, res.Restarts)
		fmt.Fprintf(stdout, "events:         %d steps, %d commit groups, %d crashes, %d recoveries observed\n",
			ev.Steps, ev.Groups, ev.Crashes, ev.Recoveries)
	} else if *useEngine {
		var ev engine.EventCounts
		cfg := engine.Config{
			Seed:     *seed,
			Observer: engine.Tee(&ev, engine.NewTelemetryObserver(tel, "mlasim engine"), recObs),
		}
		res, err := engine.Run(ctx, cfg, programs, c, spec, init)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim:", err)
			return 1
		}
		exec, final = res.Exec, res.Final
		lat, wt := res.LatencySummary(), res.WaitSummary()
		fmt.Fprintf(stdout, "workload=%s control=%s txns=%d seed=%d executor=engine\n", *workload, c.Name(), *txns, *seed)
		fmt.Fprintf(stdout, "committed:      %d in %v (%d restarts)\n", res.Committed, res.Elapsed, res.Restarts)
		fmt.Fprintf(stdout, "latency:        p50=%dµs p95=%dµs p99=%dµs mean=%.1fµs\n", lat.P50, lat.P95, lat.P99, lat.Mean)
		fmt.Fprintf(stdout, "lock wait:      p50=%dµs p95=%dµs p99=%dµs mean=%.1fµs\n", wt.P50, wt.P95, wt.P99, wt.Mean)
		fmt.Fprintf(stdout, "events:         %d steps, %d waits (%v waiting), %d commit groups\n",
			ev.Steps, ev.Waits, ev.WaitTime, ev.Groups)
		fmt.Fprintf(stdout, "aborts:         %d (%d cascades)\n", res.Aborts, res.Cascades)
		fmt.Fprintf(stdout, "control:        %+v\n", *c.Stats())
		printClosure(stdout, c)
		if tel != nil {
			tel.Metrics.ObserveSnapshot("control."+c.Name(), c.Stats().Snapshot())
		}
	} else {
		cfg := sim.DefaultConfig()
		cfg.PartialRecovery = *partial
		cfg.Telemetry = tel
		res, err := sim.RunContext(ctx, cfg, programs, c, spec, init)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim:", err)
			return 1
		}
		exec, final = res.Exec, res.Final
		h := metrics.NewHistogram()
		for _, v := range res.Latencies {
			h.Record(v)
		}
		lat := h.Summary()
		fmt.Fprintf(stdout, "workload=%s control=%s txns=%d seed=%d\n", *workload, c.Name(), *txns, *seed)
		fmt.Fprintf(stdout, "committed:      %d in %d time units (throughput %.2f/1000u)\n",
			res.Stats.Committed, res.Time, res.Throughput())
		fmt.Fprintf(stdout, "latency:        p50=%d p95=%d p99=%d mean=%.1f\n", lat.P50, lat.P95, lat.P99, lat.Mean)
		fmt.Fprintf(stdout, "steps:          %d (%d messages)\n", res.Stats.Steps, res.Stats.Messages)
		fmt.Fprintf(stdout, "aborts:         %d (%d cascades, %d partial, %d stall breaks)\n",
			res.Stats.Aborts, res.Stats.Cascades, res.Stats.PartialRollbacks, res.Stats.StallBreaks)
		fmt.Fprintf(stdout, "control:        %+v\n", *res.Control)
		printClosure(stdout, c)
		if distCtl != nil {
			ns := distCtl.NetStats()
			fmt.Fprintf(stdout, "network:        %d sent, %d delivered, %d dropped (%d fault, %d link, %d crash)\n",
				ns.Sent, ns.Delivered, ns.Dropped+ns.DroppedLink+ns.DroppedCrash,
				ns.Dropped, ns.DroppedLink, ns.DroppedCrash)
			fmt.Fprintf(stdout, "chaos:          %d stale waits, %d grace aborts, %d crash aborts, %d probe deadlocks, %d retransmits\n",
				distCtl.StaleWaits, distCtl.GraceAborts, distCtl.CrashAborts,
				distCtl.ProbeDeadlocks, distCtl.Retransmits)
			if tel != nil {
				distCtl.FillTelemetry(tel)
			}
		}
		if shardCtl != nil {
			ns := shardCtl.NetStats()
			fmt.Fprintf(stdout, "network:        %d sent, %d delivered, %d dropped (%d fault, %d link, %d crash)\n",
				ns.Sent, ns.Delivered, ns.Dropped+ns.DroppedLink+ns.DroppedCrash,
				ns.Dropped, ns.DroppedLink, ns.DroppedCrash)
			fmt.Fprintf(stdout, "shards:         %d shots committed, %d cross-shard txns, %d probe deadlocks\n",
				shardCtl.Shots, shardCtl.CrossShard, shardCtl.ProbeDeadlocks)
			fmt.Fprintf(stdout, "chaos:          %d grace aborts, %d crash aborts, %d retransmits\n",
				shardCtl.GraceAborts, shardCtl.CrashAborts, shardCtl.Retransmits)
		}
	}
	report(exec, final)

	if *check {
		chk, err := coherent.CheckExecution(exec, n, spec)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim: check:", err)
			return 1
		}
		fmt.Fprintf(stdout, "theorem 2:      atomic=%v correctable=%v\n", chk.Atomic, chk.Correctable)
		if !chk.Correctable && c.Name() != "none" {
			fmt.Fprintln(stderr, "mlasim: control admitted a non-correctable execution")
			return 1
		}
	}
	if *historyOut != "" {
		var h *history.History
		if rec != nil {
			h = rec.History()
		} else {
			var err error
			h, err = history.FromExecution(exec, n.Restrict(exec.Txns()), spec)
			if err != nil {
				fmt.Fprintln(stderr, "mlasim: history:", err)
				return 1
			}
		}
		f, err := os.Create(*historyOut)
		if err != nil {
			fmt.Fprintln(stderr, "mlasim:", err)
			return 1
		}
		err = h.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "mlasim: history:", err)
			return 1
		}
		fmt.Fprintf(stdout, "history written: %s\n", *historyOut)
		if rec != nil {
			// What is checked must be what ran: the recorded history has to
			// replay to the run's committed set, crashes included.
			replayed, _, err := h.Committed()
			if err != nil {
				fmt.Fprintln(stderr, "mlasim: history:", err)
				return 1
			}
			got, want := replayed.Txns(), exec.Txns()
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				fmt.Fprintf(stderr, "mlasim: history commits %d transactions, the run %d\n", len(got), len(want))
				return 1
			}
		}
	}
	return 0
}
