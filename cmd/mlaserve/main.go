// Command mlaserve runs the multilevel-atomicity engine as a long-lived
// JSON-over-HTTP service: one resident engine, many concurrent client
// sessions, per-transaction deadlines, bounded admission queues with load
// shedding (429 + Retry-After), and a graceful drain on SIGTERM that lets
// every in-flight transaction reach a breakpoint before the WAL pipeline
// is flushed and the process exits.
//
// Usage:
//
//	mlaserve [-addr 127.0.0.1:7070] [-control 2pl-sharded] [-spool h.spool]
//	mlaserve -data-dir /var/lib/mla [-spool h.spool] [-checkpoint-every 512]
//	mlaserve -selftest [-sessions 100] [-txns 10000] [-rate 150] [-overload] [-spool h.spool]
//	mlaserve -soak [-soak-rounds 5] [-soak-dir DIR]
//
// In serve mode the process runs until SIGTERM/SIGINT, then drains: new
// work is refused with 503 while admitted transactions finish, the WAL
// group-commit pipeline is flushed, and the -trace-out trace is written on
// every exit path. Counters are served live at GET /metrics (Prometheus
// text format); nothing else is exported on exit.
//
// With -data-dir the WAL is a real segmented on-disk log: commits are
// fsynced before their 200 is written, a restart over the same directory
// replays from the latest checkpoint (the listener answers immediately but
// /readyz stays 503 until recovery completes), and the graceful drain
// seals the log with a checkpoint so the next boot replays almost nothing.
//
// -spool appends the execution history as it happens (JSONL, one line per
// event, O(1) memory) so `mlacheck -history <file>` can audit the run's
// multilevel atomicity black-box — while it is live, after a drain, or
// after the process died by kill -9. With -data-dir the file accumulates
// across restarts; an in-memory server starts it empty on every boot.
//
// In selftest mode the binary is its own client: it starts the server,
// offers an open-loop Poisson load from many sessions (with injected
// disconnects), raises a real SIGTERM against itself mid-run to exercise
// the signal path, and exits nonzero unless every acknowledged transaction
// is durable and committed in the spooled history, which the checker must
// accept (-spool keeps that file for a standalone mlacheck).
//
// In soak mode the binary spawns ITSELF as a child server over a shared
// data directory and runs the crash-restart durability soak: SIGKILL the
// child mid-load, restart, re-verify every previously acknowledged
// transaction, repeat; exit nonzero on any lost ack, unbounded recovery
// replay, or a merged history the checker rejects.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mla/internal/fault"
	"mla/internal/serve"
	"mla/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it and the
// trace export still runs as a defer; the return value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlaserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	families := fs.Int("families", 0, "account families (0 = default)")
	accounts := fs.Int("accounts", 0, "accounts per family (0 = default)")
	control := fs.String("control", "", "concurrency control: 2pl-sharded, 2pl, or tso (default 2pl-sharded)")
	shards := fs.Int("shards", 0, "lock shards for 2pl-sharded (0 = default)")
	maxInflight := fs.Int("max-inflight", 0, "transactions admitted into the engine at once (0 = default)")
	queueDepth := fs.Int("queue-depth", 0, "bounded admission queue depth per class (0 = default)")
	admitWait := fs.Duration("admit-wait", 0, "how long admission may queue before shedding (0 = default)")
	deadline := fs.Duration("deadline", 0, "default per-transaction deadline (0 = default)")
	maxDeadline := fs.Duration("max-deadline", 0, "clamp for client-supplied deadlines (0 = default)")
	seed := fs.Int64("seed", 1, "seed for synthesized workload choices")
	traceOut := fs.String("trace-out", "", "write telemetry spans as Chrome trace-event JSON on exit")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long the SIGTERM drain may take")

	dataDir := fs.String("data-dir", "", "persist the WAL as a segmented on-disk log here; restarts recover from it")
	spoolPath := fs.String("spool", "", "append the execution history here as it happens (mlacheck -history audits it; accumulates across restarts with -data-dir)")
	checkpointEvery := fs.Int("checkpoint-every", 512, "compact the on-disk log after this many records (0 = never; -soak needs at least 1)")
	segmentBytes := fs.Int64("segment-bytes", 0, "on-disk WAL segment rotation size in bytes (0 = default)")
	diskWriteErr := fs.Float64("disk-write-err", 0, "inject: probability in [0,1] that a WAL write fails transiently")
	diskShortWrite := fs.Float64("disk-short-write", 0, "inject: probability in [0,1] that a WAL write lands torn (then retried)")
	diskSyncErr := fs.Float64("disk-sync-err", 0, "inject: probability in [0,1] that an fsync fails transiently")
	diskFullAfter := fs.Int64("disk-full-after", 0, "inject: device byte budget; writes past it fail with ENOSPC (0 = unlimited)")
	diskFaultSeed := fs.Int64("disk-fault-seed", 1, "inject: seed for the disk fault coins")

	selftest := fs.Bool("selftest", false, "run the end-to-end selftest (server + open-loop load + mid-run SIGTERM) and exit")
	sessions := fs.Int("sessions", 100, "selftest: concurrent client sessions (at least 1)")
	txns := fs.Int("txns", 10000, "selftest: total transactions offered (at least 1)")
	rate := fs.Float64("rate", 150, "selftest: Poisson arrivals/sec per session (positive)")
	auditPct := fs.Int("audit-pct", 2, "selftest: percent of transactions that are audits (audit + credit at most 100)")
	creditPct := fs.Int("credit-pct", 8, "selftest: percent of transactions that are credits")
	disconnectPct := fs.Int("disconnect-pct", 5, "selftest: percent of requests abandoned mid-flight")
	drainAfter := fs.Duration("drain-after", 2*time.Second, "selftest: raise SIGTERM this long into the load (0 = drain after load)")
	overload := fs.Bool("overload", false, "selftest: shrink admission capacity so shedding must engage")
	p99SLO := fs.Duration("p99-slo", 5*time.Second, "selftest: acked p99 latency bound (0 = unchecked)")

	soak := fs.Bool("soak", false, "run the crash-restart durability soak (spawns this binary as a child server) and exit")
	soakDir := fs.String("soak-dir", "", "soak: data directory shared across restarts (default: a temp dir)")
	soakRounds := fs.Int("soak-rounds", 5, "soak: number of SIGKILL rounds (at least 1)")
	soakTxns := fs.Int("soak-txns", 300, "soak: transactions offered per round (at least 1)")
	soakKillAfter := fs.Duration("soak-kill-after", 0, "soak: how long into each round's load the SIGKILL lands (0 = half the expected load duration)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every usage rule is checked before anything listens, forks or writes,
	// so a usage error leaves nothing behind. A documented 0 keeps its
	// meaning (default, never, unlimited, unchecked), and no other value is
	// replaced by one the command was not given.
	prob := func(p float64) bool { return p >= 0 && p <= 1 } // false for NaN
	pct := func(p int) bool { return p >= 0 && p <= 100 }
	usage := ""
	switch {
	case *families < 0 || *accounts < 0 || *shards < 0 || *maxInflight < 0 || *queueDepth < 0 ||
		*checkpointEvery < 0 || *segmentBytes < 0 || *diskFullAfter < 0:
		usage = "-families, -accounts, -shards, -max-inflight, -queue-depth, -checkpoint-every, -segment-bytes and -disk-full-after must not be negative"
	case *admitWait < 0 || *deadline < 0 || *maxDeadline < 0 || *drainTimeout < 0 ||
		*drainAfter < 0 || *p99SLO < 0 || *soakKillAfter < 0:
		usage = "-admit-wait, -deadline, -max-deadline, -drain-timeout, -drain-after, -p99-slo and -soak-kill-after must not be negative"
	case *sessions < 1 || *txns < 1 || *soakRounds < 1 || *soakTxns < 1 || !(*rate > 0):
		usage = "-sessions, -txns, -soak-rounds, -soak-txns and -rate must be positive"
	case !prob(*diskWriteErr) || !prob(*diskShortWrite) || !prob(*diskSyncErr):
		usage = "-disk-write-err, -disk-short-write and -disk-sync-err must be in [0,1]"
	case !pct(*auditPct) || !pct(*creditPct) || !pct(*disconnectPct) || *auditPct+*creditPct > 100:
		usage = "-audit-pct, -credit-pct and -disconnect-pct must be in [0,100], and -audit-pct + -credit-pct at most 100"
	case *soak && *checkpointEvery < 1:
		usage = "-soak needs -checkpoint-every of at least 1"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "mlaserve:", usage)
		return 2
	}

	cfg := serve.DefaultConfig()
	if *families > 0 {
		cfg.Families = *families
	}
	if *accounts > 0 {
		cfg.AccountsPerFamily = *accounts
	}
	if *control != "" {
		cfg.Control = *control
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *maxInflight > 0 {
		cfg.MaxInflight = *maxInflight
	}
	if *queueDepth > 0 {
		cfg.QueueDepth = *queueDepth
	}
	if *admitWait > 0 {
		cfg.AdmitWait = *admitWait
	}
	if *deadline > 0 {
		cfg.DefaultDeadline = *deadline
	}
	if *maxDeadline > 0 {
		cfg.MaxDeadline = *maxDeadline
	}
	cfg.Seed = *seed
	cfg.DataDir = *dataDir
	cfg.SpoolPath = *spoolPath
	cfg.SegmentBytes = *segmentBytes
	if *dataDir != "" {
		cfg.CheckpointEvery = *checkpointEvery
	}
	cfg.DiskFaults = fault.Plan{
		Seed:               *diskFaultSeed,
		DiskWriteErrRate:   *diskWriteErr,
		DiskShortWriteRate: *diskShortWrite,
		DiskSyncErrRate:    *diskSyncErr,
		DiskFullAfter:      *diskFullAfter,
	}

	var tel *telemetry.Telemetry
	if *traceOut != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
	}
	// Export the trace on every path out, including failures: the trace of
	// a failed run is the one worth looking at.
	defer func() {
		if tel == nil {
			return
		}
		if err := tel.WriteTrace(*traceOut); err != nil {
			fmt.Fprintf(stderr, "mlaserve: trace: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "wrote %s (load in ui.perfetto.dev)\n", *traceOut)
		}
	}()

	if *soak {
		return runSoak(serve.SoakOptions{
			Dir:                *soakDir,
			Rounds:             *soakRounds,
			TxnsPerRound:       *soakTxns,
			KillAfter:          *soakKillAfter,
			CheckpointEvery:    *checkpointEvery,
			DiskWriteErrRate:   *diskWriteErr,
			DiskShortWriteRate: *diskShortWrite,
			DiskSyncErrRate:    *diskSyncErr,
			Seed:               *seed,
			Out:                stderr,
		}, stdout, stderr)
	}
	if *selftest {
		return runSelfTest(serve.SelfTestOptions{
			Config:        cfg,
			Sessions:      *sessions,
			Txns:          *txns,
			Rate:          *rate,
			AuditPct:      *auditPct,
			CreditPct:     *creditPct,
			DisconnectPct: *disconnectPct,
			DrainAfter:    *drainAfter,
			Overload:      *overload,
			P99SLO:        *p99SLO,
			Out:           stderr,
		}, stdout, stderr)
	}
	return runServe(cfg, *addr, *drainTimeout, stdout, stderr)
}

// runServe is the long-lived mode: serve until SIGTERM/SIGINT (or until
// the listener fails), then drain gracefully. The listener answers and is
// announced BEFORE serve.New runs its WAL recovery (see serve.Front), and
// the signal handler is installed before the announcement, so a supervisor
// that signals as soon as it reads "listening on" gets a drain, not a kill.
func runServe(cfg serve.Config, addr string, drainTimeout time.Duration, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "mlaserve: %v\n", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	front := serve.Listen(ln)
	fmt.Fprintf(stdout, "mlaserve: listening on %s (control=%s, inflight=%d, queue=%d)\n",
		ln.Addr(), cfg.Control, cfg.MaxInflight, cfg.QueueDepth)

	start := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mlaserve: %v\n", err)
		front.Close(context.Background())
		return 1
	}
	if info := srv.RecoveryInfo(); info.Epoch > 0 {
		fmt.Fprintf(stdout, "mlaserve: recovered %s in %v — epoch %d, %d records (%d past checkpoint, %d torn or stale bytes, %d segments)\n",
			cfg.DataDir, time.Since(start).Round(time.Millisecond), info.Epoch,
			info.Records, info.SinceCheckpoint, info.TornBytes, info.Segments)
	}
	front.Mount(srv)

	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "mlaserve: %v — draining (in-flight transactions run to a breakpoint)\n", s)
	case <-front.Stopped():
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	code := 0
	if err := front.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "mlaserve: drain: %v\n", err)
		code = 1
	}
	if err := front.Close(ctx); err != nil {
		fmt.Fprintf(stderr, "mlaserve: %v\n", err)
		code = 1
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "mlaserve: drained clean — %d committed, %d shed, %d deadline-aborted\n",
		st.Engine.Committed, st.Shed, st.Deadline)
	return code
}

// runSoak spawns this very binary as the child server: the soak's verdict
// is only meaningful against a process whose SIGKILL this one cannot
// intercept.
func runSoak(o serve.SoakOptions, stdout, stderr io.Writer) int {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "mlaserve: soak: %v\n", err)
		return 1
	}
	o.Bin = bin
	if o.Dir == "" {
		o.Dir, err = os.MkdirTemp("", "mlaserve-soak-")
		if err != nil {
			fmt.Fprintf(stderr, "mlaserve: soak: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "mlaserve: soak dir %s\n", o.Dir)
	}
	rep, err := serve.Soak(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "mlaserve: soak: %v\n", err)
		return 1
	}
	rep.Summary().Render(stdout)
	fmt.Fprintf(stdout, "soak spool: %s (audit with: mlacheck -history %s)\n", rep.SpoolPath, rep.SpoolPath)
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "mlaserve: soak: FAIL: %s\n", p)
		}
		return 1
	}
	return 0
}

// runSelfTest drives serve.SelfTest with the drain routed through a REAL
// SIGTERM against our own process, so the signal path itself is under test
// rather than simulated.
func runSelfTest(o serve.SelfTestOptions, stdout, stderr io.Writer) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)
	o.TriggerDrain = func(drain func()) {
		go func() {
			<-sig
			fmt.Fprintln(stderr, "mlaserve: selftest: SIGTERM received — draining")
			drain()
		}()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			// Signal delivery failed (exotic platform); drain directly so
			// the run still finishes.
			fmt.Fprintf(stderr, "mlaserve: selftest: kill: %v — draining directly\n", err)
			drain()
		}
	}

	rep, err := serve.SelfTest(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "mlaserve: selftest: %v\n", err)
		return 1
	}
	rep.Summary().Render(stdout)
	if o.Config.SpoolPath != "" {
		fmt.Fprintf(stdout, "selftest spool: %s (audit with: mlacheck -history %s)\n", o.Config.SpoolPath, o.Config.SpoolPath)
	}
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "mlaserve: selftest: FAIL: %s\n", p)
		}
		return 1
	}
	return 0
}
