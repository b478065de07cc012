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
// group-commit pipeline is flushed, and telemetry is exported on every exit
// path.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mla/internal/fault"
	"mla/internal/serve"
	"mla/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// run keeps the real logic defer-safe: os.Exit in main would skip the
// telemetry export otherwise.
func run() int {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	families := flag.Int("families", 0, "account families (0 = default)")
	accounts := flag.Int("accounts", 0, "accounts per family (0 = default)")
	control := flag.String("control", "", "concurrency control: 2pl-sharded, 2pl, tso, none")
	shards := flag.Int("shards", 0, "lock shards for 2pl-sharded (0 = default)")
	maxInflight := flag.Int("max-inflight", 0, "transactions admitted into the engine at once")
	queueDepth := flag.Int("queue-depth", 0, "bounded admission queue depth per class")
	admitWait := flag.Duration("admit-wait", 0, "how long admission may queue before shedding")
	deadline := flag.Duration("deadline", 0, "default per-transaction deadline")
	maxDeadline := flag.Duration("max-deadline", 0, "clamp for client-supplied deadlines")
	seed := flag.Int64("seed", 1, "seed for synthesized workload choices")
	traceOut := flag.String("trace-out", "", "write telemetry spans as Chrome trace-event JSON on exit")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics snapshot as JSON on exit")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long the SIGTERM drain may take")

	dataDir := flag.String("data-dir", "", "persist the WAL as a segmented on-disk log here; restarts recover from it")
	spoolPath := flag.String("spool", "", "append the execution history here as it happens (mlacheck -history audits it; accumulates across restarts with -data-dir)")
	checkpointEvery := flag.Int("checkpoint-every", 512, "compact the on-disk log after this many records (0 = never)")
	segmentBytes := flag.Int64("segment-bytes", 0, "on-disk WAL segment rotation size (0 = default)")
	diskWriteErr := flag.Float64("disk-write-err", 0, "inject: probability a WAL write fails transiently")
	diskShortWrite := flag.Float64("disk-short-write", 0, "inject: probability a WAL write lands torn (then retried)")
	diskSyncErr := flag.Float64("disk-sync-err", 0, "inject: probability an fsync fails transiently")
	diskFullAfter := flag.Int64("disk-full-after", 0, "inject: device byte budget; writes past it fail with ENOSPC (0 = unlimited)")
	diskFaultSeed := flag.Int64("disk-fault-seed", 1, "inject: seed for the disk fault coins")

	selftest := flag.Bool("selftest", false, "run the end-to-end selftest (server + open-loop load + mid-run SIGTERM) and exit")
	sessions := flag.Int("sessions", 100, "selftest: concurrent client sessions")
	txns := flag.Int("txns", 10000, "selftest: total transactions offered")
	rate := flag.Float64("rate", 150, "selftest: Poisson arrivals/sec per session")
	auditPct := flag.Int("audit-pct", 2, "selftest: percent of transactions that are audits")
	creditPct := flag.Int("credit-pct", 8, "selftest: percent of transactions that are credits")
	disconnectPct := flag.Int("disconnect-pct", 5, "selftest: percent of requests abandoned mid-flight")
	drainAfter := flag.Duration("drain-after", 2*time.Second, "selftest: raise SIGTERM this long into the load (0 = drain after load)")
	overload := flag.Bool("overload", false, "selftest: shrink admission capacity so shedding must engage")
	p99SLO := flag.Duration("p99-slo", 5*time.Second, "selftest: acked p99 latency bound (0 = unchecked)")

	soak := flag.Bool("soak", false, "run the crash-restart durability soak (spawns this binary as a child server) and exit")
	soakDir := flag.String("soak-dir", "", "soak: data directory shared across restarts (default: a temp dir)")
	soakRounds := flag.Int("soak-rounds", 5, "soak: number of SIGKILL rounds")
	soakTxns := flag.Int("soak-txns", 300, "soak: transactions offered per round")
	soakKillAfter := flag.Duration("soak-kill-after", 0, "soak: how long into each round's load the SIGKILL lands (0 = half the expected load duration)")
	flag.Parse()

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
	if *traceOut != "" || *metricsOut != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
	}
	// Export telemetry on every path out, including failures: the trace of
	// a failed run is the one worth looking at.
	defer func() {
		if tel == nil {
			return
		}
		if *traceOut != "" {
			if err := tel.WriteTrace(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "mlaserve: trace: %v\n", err)
			} else {
				fmt.Printf("wrote %s (load in ui.perfetto.dev)\n", *traceOut)
			}
		}
		if *metricsOut != "" {
			if err := tel.WriteMetrics(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "mlaserve: metrics: %v\n", err)
			} else {
				fmt.Printf("wrote %s\n", *metricsOut)
			}
		}
	}()

	if *soak {
		return runSoak(*soakDir, *soakRounds, *soakTxns, *soakKillAfter, *checkpointEvery, *seed,
			*diskWriteErr, *diskShortWrite, *diskSyncErr)
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
			Out:           os.Stderr,
		}, os.Stdout, os.Stderr)
	}
	return runServe(cfg, *addr, *drainTimeout)
}

// A client that opens connections and never finishes a request header, or
// parks idle keep-alives, must not pin goroutines and descriptors forever:
// overload degrades, it does not hang. Request bodies are ≤ 4 KiB and
// bounded by the handler; the idle bound exceeds the load generator's own
// 90 s so a client closes first.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runServe is the long-lived mode: serve until SIGTERM/SIGINT, then drain
// gracefully.
//
// The listener binds and announces BEFORE serve.New runs — WAL recovery
// happens inside New and its duration grows with the unreplayed log, so the
// recovery window must be observable from outside (probes get 503
// "recovering" through the gate) rather than a connection-refused blackout.
func runServe(cfg serve.Config, addr string, drainTimeout time.Duration) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlaserve: %v\n", err)
		return 1
	}
	gate := &serve.Gate{}
	hs := newHTTPServer(gate)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("mlaserve: listening on %s (control=%s, inflight=%d, queue=%d)\n",
		ln.Addr(), cfg.Control, cfg.MaxInflight, cfg.QueueDepth)

	start := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlaserve: %v\n", err)
		hs.Close()
		return 1
	}
	if info := srv.RecoveryInfo(); info.Epoch > 0 {
		fmt.Printf("mlaserve: recovered %s in %v — epoch %d, %d records (%d past checkpoint, %d torn or stale bytes, %d segments)\n",
			cfg.DataDir, time.Since(start).Round(time.Millisecond), info.Epoch,
			info.Records, info.SinceCheckpoint, info.TornBytes, info.Segments)
	}
	gate.Set(srv.Handler())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mlaserve: %v — draining (in-flight transactions run to a breakpoint)\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "mlaserve: serve: %v\n", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mlaserve: drain: %v\n", err)
		code = 1
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mlaserve: http shutdown: %v\n", err)
	}
	<-serveErr
	if err := srv.SpoolErr(); err != nil {
		fmt.Fprintf(os.Stderr, "mlaserve: history spool: %v\n", err)
		code = 1
	}
	st := srv.Stats()
	fmt.Printf("mlaserve: drained clean — %d committed, %d shed, %d deadline-aborted\n",
		st.Acked, st.Shed, st.Deadline)
	return code
}

// runSoak spawns this very binary as the child server: the soak's verdict
// is only meaningful against a process whose SIGKILL this one cannot
// intercept.
func runSoak(dir string, rounds, txns int, killAfter time.Duration, checkpointEvery int, seed int64,
	writeErr, shortWrite, syncErr float64) int {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlaserve: soak: %v\n", err)
		return 1
	}
	if dir == "" {
		dir, err = os.MkdirTemp("", "mlaserve-soak-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlaserve: soak: %v\n", err)
			return 1
		}
		fmt.Printf("mlaserve: soak dir %s\n", dir)
	}
	rep, err := serve.Soak(context.Background(), serve.SoakOptions{
		Bin:                bin,
		Dir:                dir,
		Rounds:             rounds,
		TxnsPerRound:       txns,
		KillAfter:          killAfter,
		CheckpointEvery:    checkpointEvery,
		DiskWriteErrRate:   writeErr,
		DiskShortWriteRate: shortWrite,
		DiskSyncErrRate:    syncErr,
		Seed:               seed,
		Out:                os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlaserve: soak: %v\n", err)
		return 1
	}
	rep.Summary().Render(os.Stdout)
	fmt.Printf("soak spool: %s (audit with: mlacheck -history %s)\n", rep.SpoolPath, rep.SpoolPath)
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Fprintf(os.Stderr, "mlaserve: soak: FAIL: %s\n", p)
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
	o.TriggerDrain = func(shutdown func()) {
		go func() {
			<-sig
			fmt.Fprintln(stderr, "mlaserve: selftest: SIGTERM received — draining")
			shutdown()
		}()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			// Signal delivery failed (exotic platform); drain directly so
			// the run still finishes.
			fmt.Fprintf(stderr, "mlaserve: selftest: kill: %v — draining directly\n", err)
			shutdown()
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
