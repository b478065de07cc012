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
	os.Exit(run())
}

// printClosure reports, for the closure controls (prevent, detect), how
// wide the coherent closure is when the run ends: with every committed
// transaction sealed (Stats.Sealed) it holds only what was still in flight.
func printClosure(c sched.Control) {
	if w, ok := c.(interface {
		ClosureSteps() int
		ClosureSlots() int
	}); ok {
		fmt.Printf("closure:        %d live steps in %d slots\n", w.ClosureSteps(), w.ClosureSlots())
	}
}

// run keeps the real logic defer-safe: os.Exit in main would skip the
// telemetry export and pprof stop otherwise.
func run() int {
	workload := flag.String("workload", "bank", "bank, sessions, cad, or conv")
	configPath := flag.String("config", "", "run a JSON-defined workload instead (see internal/config)")
	control := flag.String("control", "prevent", "prevent, prevent-direct, detect, 2pl, 2pl-sharded, tso, serial, none, dist, or shard")
	txns := flag.Int("txns", 24, "number of main transactions (transfers / sessions / modifications / conversations)")
	seed := flag.Int64("seed", 1, "workload seed")
	partial := flag.Bool("partial", false, "enable breakpoint-granular partial recovery")
	useEngine := flag.Bool("engine", false, "run on the concurrent engine instead of the simulator")
	check := flag.Bool("check", false, "verify the execution against Theorem 2")
	historyOut := flag.String("history", "", "write the run's event history (mla-history JSON, the format mlacheck reads) to this file")
	crashes := flag.Int("crashes", 0, "engine only: inject this many crashes on a WAL-backed store, recovering between rounds")
	tear := flag.Int("tear", 2, "records torn off the durable tail at each injected crash")
	errRate := flag.Float64("errrate", 0, "engine only: transient step-error rate in [0,1]")
	shards := flag.Int("shards", 4, "shard control: partition count (per-shard lock tables on the simulated bus)")
	delay := flag.Int64("delay", 5, "dist/shard controls: one-hop bus latency in simulated time units")
	loss := flag.Float64("loss", 0, "dist/shard controls: per-message drop probability in [0,1]")
	reorder := flag.Float64("reorder", 0, "dist/shard controls: per-message extra-delay probability in [0,1] (60 extra units, reorders)")
	partTime := flag.Int64("partition", 0, "dist/shard controls: split the processors into two halves at this time (0 = never)")
	healTime := flag.Int64("heal", 0, "dist/shard controls: heal the partition at this time (0 = partition+300)")
	procFail := flag.Int("procfail", 0, "dist/shard controls: crash this many processors in sequence, each rejoining 400 units later")
	useTel := flag.Bool("telemetry", false, "record spans and counters; print the metrics table at exit")
	telOut := flag.String("trace-out", "", "write recorded spans as Chrome trace-event JSON (implies -telemetry)")
	pprofPrefix := flag.String("pprof", "", "write CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	var tel *telemetry.Telemetry
	if *useTel || *telOut != "" {
		tel = telemetry.New()
	}
	if *pprofPrefix != "" {
		stop, err := telemetry.StartPprof(*pprofPrefix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim: pprof:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "mlasim: pprof:", err)
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
				fmt.Fprintln(os.Stderr, "mlasim: trace-out:", err)
			} else {
				fmt.Printf("spans written:  %s (load in ui.perfetto.dev)\n", *telOut)
			}
		}
		tel.Table().Render(os.Stdout)
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
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			return 1
		}
		wl, err := config.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			return 1
		}
		programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
		report = func(exec model.Execution, _ map[model.EntityID]model.Value) {
			if err := exec.Validate(init); err != nil {
				fmt.Printf("TRACE INVALID:  %v\n", err)
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
				fmt.Printf("conservation:   %v (total %d)\n", inv.ConservationOK, inv.Expected)
				fmt.Printf("audits exact:   %d, inexact: %d\n", inv.AuditsExact, inv.AuditsInexact)
				if inv.TraceValid != nil {
					fmt.Printf("TRACE INVALID:  %v\n", inv.TraceValid)
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
				fmt.Printf("conservation:   %v (total %d)\n", inv.ConservationOK, inv.Expected)
				fmt.Printf("audits exact:   %d, inexact: %d\n", inv.AuditsExact, inv.AuditsInexact)
				if inv.TraceValid != nil {
					fmt.Printf("TRACE INVALID:  %v\n", inv.TraceValid)
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
				fmt.Printf("conversations:  %d completed, %d failed\n", out.Completed, out.Failed)
			}
		case "cad":
			p := cad.DefaultParams()
			p.Mods = *txns
			p.Seed = *seed
			wl := cad.Generate(p)
			programs, n, spec, init = wl.Programs, wl.Nest, wl.Spec, wl.Init
			report = func(exec model.Execution, final map[model.EntityID]model.Value) {
				inv := wl.Check(exec, final)
				fmt.Printf("totals consistent: %v\n", inv.TotalsConsistent)
				fmt.Printf("snapshots clean:   %d, dirty: %d\n", inv.SnapshotsClean, inv.SnapshotsDirty)
				if inv.TraceValid != nil {
					fmt.Printf("TRACE INVALID:     %v\n", inv.TraceValid)
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "mlasim: unknown workload %q\n", *workload)
			return 2
		}
	}

	chaosFlags := *loss > 0 || *reorder > 0 || *partTime > 0 || *healTime > 0 || *procFail > 0
	busCtl := *control == "dist" || *control == "shard"
	if !busCtl && chaosFlags {
		fmt.Fprintln(os.Stderr, "mlasim: -loss, -reorder, -partition, -heal, and -procfail apply to -control dist and shard only")
		return 2
	}
	if busCtl && *useEngine {
		fmt.Fprintf(os.Stderr, "mlasim: -control %s is simulator-only (the engine has no message-bus clock)\n", *control)
		return 2
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
	mkCtl := func() sched.Control {
		switch *control {
		case "dist":
			procs := sim.DefaultConfig().Processors
			distCtl = dist.NewNet(n, spec, dist.Params{
				Procs:  procs,
				Owner:  sim.OwnerFunc(procs),
				Delay:  *delay,
				Faults: fault.New(busChaos(procs)),
			})
			return distCtl
		case "shard":
			if *shards < 1 {
				fmt.Fprintln(os.Stderr, "mlasim: -shards must be at least 1")
				os.Exit(2)
			}
			shardCtl = shard.NewSimControl(shard.SimParams{
				Shards: *shards,
				Delay:  *delay,
				Faults: fault.New(busChaos(*shards)),
				Nest:   n,
			})
			return shardCtl
		}
		kind, err := sched.ParseControlKind(*control)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlasim: unknown control %q\n", *control)
			os.Exit(2)
		}
		c, err := sched.New(kind, n, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			os.Exit(2)
		}
		return c
	}
	c := mkCtl()
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
	if !*useEngine && (*crashes > 0 || *errRate > 0) {
		fmt.Fprintln(os.Stderr, "mlasim: -crashes and -errrate require -engine (the simulator's crash path is sim.RunWithCrashes)")
		return 2
	}
	if *useEngine && (*crashes > 0 || *errRate > 0) {
		if *partial {
			fmt.Fprintln(os.Stderr, "mlasim: -partial is simulator-only (the engine rolls back whole transactions)")
			return 2
		}
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
			NewControl: mkCtl,
		}
		res, err := engine.RunWithCrashes(ctx, plan, programs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			return 1
		}
		exec, final = res.Exec, res.Final
		fmt.Printf("workload=%s control=%s txns=%d seed=%d executor=engine+faults\n", *workload, c.Name(), *txns, *seed)
		fmt.Printf("committed:      %d (%d gave up) across %d rounds\n", res.Committed, res.GaveUp, res.Rounds)
		fmt.Printf("crashes:        %d (%d records torn, %d txn attempts redone)\n", res.Crashes, res.TornTotal, res.RedoneTxns)
		fmt.Printf("faults:         %d transient step errors injected, %d restarts\n", res.FaultsInjected, res.Restarts)
		fmt.Printf("events:         %d steps, %d commit groups, %d crashes, %d recoveries observed\n",
			ev.Steps, ev.Groups, ev.Crashes, ev.Recoveries)
	} else if *useEngine {
		if *partial {
			fmt.Fprintln(os.Stderr, "mlasim: -partial is simulator-only (the engine rolls back whole transactions)")
			return 2
		}
		var ev engine.EventCounts
		cfg := engine.Config{
			Seed:     *seed,
			Observer: engine.Tee(&ev, engine.NewTelemetryObserver(tel, "mlasim engine"), recObs),
		}
		res, err := engine.Run(ctx, cfg, programs, c, spec, init)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			return 1
		}
		exec, final = res.Exec, res.Final
		lat, wt := res.LatencySummary(), res.WaitSummary()
		fmt.Printf("workload=%s control=%s txns=%d seed=%d executor=engine\n", *workload, c.Name(), *txns, *seed)
		fmt.Printf("committed:      %d in %v (%d restarts)\n", res.Committed, res.Elapsed, res.Restarts)
		fmt.Printf("latency:        p50=%dµs p95=%dµs p99=%dµs mean=%.1fµs\n", lat.P50, lat.P95, lat.P99, lat.Mean)
		fmt.Printf("lock wait:      p50=%dµs p95=%dµs p99=%dµs mean=%.1fµs\n", wt.P50, wt.P95, wt.P99, wt.Mean)
		fmt.Printf("events:         %d steps, %d waits (%v waiting), %d commit groups\n",
			ev.Steps, ev.Waits, ev.WaitTime, ev.Groups)
		fmt.Printf("aborts:         %d (%d cascades)\n", res.Aborts, res.Cascades)
		fmt.Printf("control:        %+v\n", *c.Stats())
		printClosure(c)
		if tel != nil {
			tel.Metrics.ObserveSnapshot("control."+c.Name(), c.Stats().Snapshot())
		}
	} else {
		cfg := sim.DefaultConfig()
		cfg.PartialRecovery = *partial
		cfg.Telemetry = tel
		res, err := sim.RunContext(ctx, cfg, programs, c, spec, init)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			return 1
		}
		exec, final = res.Exec, res.Final
		h := metrics.NewHistogram()
		for _, v := range res.Latencies {
			h.Record(v)
		}
		lat := h.Summary()
		fmt.Printf("workload=%s control=%s txns=%d seed=%d\n", *workload, c.Name(), *txns, *seed)
		fmt.Printf("committed:      %d in %d time units (throughput %.2f/1000u)\n",
			res.Stats.Committed, res.Time, res.Throughput())
		fmt.Printf("latency:        p50=%d p95=%d p99=%d mean=%.1f\n", lat.P50, lat.P95, lat.P99, lat.Mean)
		fmt.Printf("steps:          %d (%d messages)\n", res.Stats.Steps, res.Stats.Messages)
		fmt.Printf("aborts:         %d (%d cascades, %d partial, %d stall breaks)\n",
			res.Stats.Aborts, res.Stats.Cascades, res.Stats.PartialRollbacks, res.Stats.StallBreaks)
		fmt.Printf("control:        %+v\n", *res.Control)
		printClosure(c)
		if distCtl != nil {
			ns := distCtl.NetStats()
			fmt.Printf("network:        %d sent, %d delivered, %d dropped (%d fault, %d link, %d crash)\n",
				ns.Sent, ns.Delivered, ns.Dropped+ns.DroppedLink+ns.DroppedCrash,
				ns.Dropped, ns.DroppedLink, ns.DroppedCrash)
			fmt.Printf("chaos:          %d stale waits, %d grace aborts, %d crash aborts, %d probe deadlocks, %d retransmits\n",
				distCtl.StaleWaits, distCtl.GraceAborts, distCtl.CrashAborts,
				distCtl.ProbeDeadlocks, distCtl.Retransmits)
			if tel != nil {
				distCtl.FillTelemetry(tel)
			}
		}
		if shardCtl != nil {
			ns := shardCtl.NetStats()
			fmt.Printf("network:        %d sent, %d delivered, %d dropped (%d fault, %d link, %d crash)\n",
				ns.Sent, ns.Delivered, ns.Dropped+ns.DroppedLink+ns.DroppedCrash,
				ns.Dropped, ns.DroppedLink, ns.DroppedCrash)
			fmt.Printf("shards:         %d shots committed, %d cross-shard txns, %d probe deadlocks\n",
				shardCtl.Shots, shardCtl.CrossShard, shardCtl.ProbeDeadlocks)
			fmt.Printf("chaos:          %d grace aborts, %d crash aborts, %d retransmits\n",
				shardCtl.GraceAborts, shardCtl.CrashAborts, shardCtl.Retransmits)
		}
	}
	report(exec, final)

	if *check {
		chk, err := coherent.CheckExecution(exec, n, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim: check:", err)
			return 1
		}
		fmt.Printf("theorem 2:      atomic=%v correctable=%v\n", chk.Atomic, chk.Correctable)
		if !chk.Correctable && c.Name() != "none" {
			fmt.Fprintln(os.Stderr, "mlasim: control admitted a non-correctable execution")
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
				fmt.Fprintln(os.Stderr, "mlasim: history:", err)
				return 1
			}
		}
		f, err := os.Create(*historyOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim:", err)
			return 1
		}
		err = h.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlasim: history:", err)
			return 1
		}
		fmt.Printf("history written: %s\n", *historyOut)
		if rec != nil {
			// What is checked must be what ran: the recorded history has to
			// replay to the run's committed set, crashes included.
			replayed, _, err := h.Committed()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mlasim: history:", err)
				return 1
			}
			got, want := replayed.Txns(), exec.Txns()
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				fmt.Fprintf(os.Stderr, "mlasim: history commits %d transactions, the run %d\n", len(got), len(want))
				return 1
			}
		}
	}
	return 0
}
