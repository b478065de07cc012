package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mla/internal/history"
	"mla/internal/model"
	"mla/internal/serve"
	"mla/internal/serve/loadgen"
)

// serve_durable: serve.New over a data directory (segmented file WAL, real
// fsync, compacting checkpoints every 512 records, sharded 2PL, 16 × 4
// accounts) behind a real loopback net/http listener. One process drives it
// over 8 keep-alive connections: a connection parked on a group-commit
// fsync holds no thread, and with ≤ nproc connections a commit group never
// forms and two transactions never meet in the lock table, so 8 is the
// smallest count that lets the layers under test do their work.
const (
	serveConnections     = 8
	serveSessions        = bankFamilies // one per family
	serveWarmupTxns      = 64
	serveClosedPerSecond = 1_200 // closed-loop transactions per budget second, per repeat
	serveClosedRepeats   = 3
	serveOpenRate        = 2_000 // txn/s of the latency rung
	serveWindow          = time.Second
	serveTracedTxns      = 3_000
	serveAuditedTxns     = 500
	serveSetupReps       = 9

	// serveSLOp99 is the ladder's p99 limit. ladder.go has the placement
	// rule; README.md records the finer ladders the reference host's noise
	// could not resolve before these rungs were chosen.
	serveSLOp99 = 25 * time.Millisecond
)

var serveLadder = []int{2_000, 3_000, 6_000}

func serveConfig(dataDir, spool string) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Families = bankFamilies
	cfg.AccountsPerFamily = bankAccountsPerFam
	cfg.Control = "2pl-sharded"
	cfg.Shards = 16
	cfg.DataDir = dataDir
	cfg.CheckpointEvery = 512
	cfg.SpoolPath = spool
	// The per-session retry budget is a defence against one pathological
	// client; sixteen sessions carrying the whole load would spend it in
	// seconds and the run would measure 429s. Raised so it is not the thing
	// measured; serve.budget_denied reports if it ever bites anyway.
	cfg.SessionRetryBudget = 1 << 30
	cfg.MaxRestarts = 0 // bounded by the budget above
	return cfg
}

// serveWorld is one running server plus the client side that drives it.
type serveWorld struct {
	cfg      serve.Config
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     *http.Transport
	client   *timedClient
	sessions []string
}

type spanKey struct{}

const spanHeader = "X-Bench-Span"

// spanTransport carries the client span's ID to the handler middleware.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// timedClient decorates the loadgen client: it times every attempt (the
// client.request span, and the duration gen.late and serve.http_overhead
// are derived from) and numbers attempts so spans share one ID per
// transaction.
type timedClient struct {
	inner loadgen.Client
	tr    *tracer
	seq   atomic.Int64

	mu      sync.Mutex
	timings map[string]clientTiming // acked txn → its attempt's timing
}

type clientTiming struct {
	client   time.Duration // Do entry to Do return
	serverUS int64         // the response's latency_us
}

func (c *timedClient) OpenSession(ctx context.Context) (string, error) {
	return c.inner.OpenSession(ctx)
}
func (c *timedClient) CloseSession(id string) { c.inner.CloseSession(id) }

func (c *timedClient) Do(ctx context.Context, r loadgen.Request) loadgen.Result {
	n := c.seq.Add(1)
	if c.tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, n)
	}
	t0 := time.Now()
	res := c.inner.Do(ctx, r)
	t1 := time.Now()
	if c.tr != nil {
		c.tr.root(spClientRequest, n, int64(t0.Sub(c.tr.epoch)), int64(t1.Sub(c.tr.epoch)))
	}
	if res.Status == loadgen.StatusAcked {
		c.mu.Lock()
		c.timings[res.Txn] = clientTiming{client: t1.Sub(t0), serverUS: res.LatencyUS}
		c.mu.Unlock()
	}
	return res
}

func (c *timedClient) take(txn string) (clientTiming, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.timings[txn]
	delete(c.timings, txn)
	return t, ok
}

// captureWriter keeps a copy of the (small) JSON response so the middleware
// can read the engine's own latency_us / waited_us out of it.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// tracedHandler records http.handler around the server's handler, and under
// it engine.txn and lock.wait with the durations the response reports.
// Their placement inside the handler interval is nominal (flush right: the
// engine's work ends where the response is encoded); their durations are
// the engine's own.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(rw, r)
			return
		}
		cw := &captureWriter{ResponseWriter: rw, status: http.StatusOK}
		start := tr.now()
		h.ServeHTTP(cw, r)
		end := tr.now()
		hid := tr.child(spHTTPHandler, id, id, start, end)
		var resp struct {
			LatencyUS int64 `json:"latency_us"`
			WaitedUS  int64 `json:"waited_us"`
		}
		if cw.status != http.StatusOK || json.Unmarshal(cw.body.Bytes(), &resp) != nil || resp.LatencyUS <= 0 {
			return
		}
		es := end - resp.LatencyUS*1e3
		if es < start {
			es = start
		}
		eid := tr.child(spEngineTxn, id, hid, es, end)
		if resp.WaitedUS > 0 {
			we := es + resp.WaitedUS*1e3
			if we > end {
				we = end
			}
			tr.child(spLockWait, id, eid, es, we)
		}
	})
}

// startServe boots a server on cfg.DataDir, listens on loopback, opens one
// session per family and runs the warm-up transactions that establish the
// keep-alive connections. When it returns, the next transaction is
// admissible at full speed — that instant is what setup_s measures to.
func startServe(cfg serve.Config, tr *tracer) (*serveWorld, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	w := &serveWorld{cfg: cfg, srv: srv, served: make(chan error, 1)}
	handler := srv.Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr)
	}
	w.hs = &http.Server{Handler: handler}
	go func() { w.served <- w.hs.Serve(ln) }()

	w.base = &http.Transport{MaxIdleConns: serveConnections, MaxIdleConnsPerHost: serveConnections, IdleConnTimeout: 90 * time.Second}
	var rt http.RoundTripper = w.base
	if tr != nil {
		rt = spanTransport{base: w.base}
	}
	hc := loadgen.NewHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	w.client = &timedClient{inner: hc, timings: make(map[string]clientTiming)}
	for s := 0; s < serveSessions; s++ {
		id, err := w.client.OpenSession(context.Background())
		if err != nil {
			w.stop()
			return nil, err
		}
		w.sessions = append(w.sessions, id)
	}
	warm := w.drive(context.Background(), driveSpec{seed: -1, txns: serveWarmupTxns})
	if n := warm.failedCount(); n > 0 {
		w.stop()
		return nil, fmt.Errorf("serve_durable: %d warm-up transactions failed: %v", n, warm.Failed)
	}
	// Measured transactions number from 1, and only they are traced: warm-up
	// attempts carry no span ID, so the handler middleware passes them by.
	w.client.seq.Store(0)
	w.client.tr = tr
	return w, nil
}

// stop shuts the listener and then the server down gracefully (drain, WAL
// flush, sealing checkpoint) and waits for the accept loop to exit.
func (w *serveWorld) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := w.hs.Shutdown(ctx)
	<-w.served
	w.base.CloseIdleConnections()
	if err := w.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

// driveSpec is one load phase over HTTP.
type driveSpec struct {
	seed    int64
	txns    int
	rate    float64 // 0: closed loop; else open loop, Poisson at this rate
	keepIDs bool
}

// drivePass is a passResult plus what only the HTTP path yields.
type drivePass struct {
	passResult
	AckedIDs   []string
	LateNS     []int64 // open loop: how late each acked request was dispatched
	OverheadUS []int64 // client round trip minus the engine's own latency_us
}

// drive offers the seed's request list through a loadgen.Pool of
// serveConnections workers. Open-loop latency is measured from the
// scheduled arrival (loadgen.Pool's discipline); every outcome that is not
// an ack is tallied by status.
func (w *serveWorld) drive(ctx context.Context, ds driveSpec) drivePass {
	list := newBankList(ds.seed, mixOf("serve_durable"))
	mk := func(i int) loadgen.Request {
		req := list.at(i)
		return loadgen.Request{Session: w.sessions[req.Family], Kind: kindNames[req.Kind]}
	}
	var (
		mu      sync.Mutex
		windows [][]int64
		dp      drivePass
		start   time.Time
	)
	observe := func(res loadgen.Result, openLatNS int64) {
		if res.Status != loadgen.StatusAcked {
			return
		}
		timing, ok := w.client.take(res.Txn)
		win := int(time.Since(start) / serveWindow)
		mu.Lock()
		for len(windows) <= win {
			windows = append(windows, nil)
		}
		windows[win] = append(windows[win], openLatNS)
		if ok {
			dp.LateNS = append(dp.LateNS, openLatNS-int64(timing.client))
			dp.OverheadUS = append(dp.OverheadUS, timing.client.Microseconds()-timing.serverUS)
		}
		mu.Unlock()
	}
	pool := &loadgen.Pool{Client: w.client, Workers: serveConnections, Observe: observe, KeepIDs: ds.keepIDs}
	before := readResources()
	start = time.Now()
	var arrivals <-chan loadgen.Arrival
	if ds.rate > 0 {
		arrivals = loadgen.OpenLoop(ctx, loadgen.Wall, ds.txns, ds.rate, rand.New(rand.NewSource(ds.seed)), mk)
	} else {
		arrivals = loadgen.ClosedLoop(ctx, ds.txns, mk)
	}
	pr := pool.Run(ctx, arrivals)
	dp.Elapsed = time.Since(start)
	dp.Cost = readResources().since(before)
	dp.Offered, dp.Committed, dp.Hist, dp.AckedIDs = pr.Offered, pr.Acked, pr.Latency, pr.AckedIDs
	dp.Service = time.Duration(pr.ServiceUS) * time.Microsecond
	dp.Failed = map[string]int{}
	for status, n := range map[string]int{"deadline": pr.Deadline, "shed": pr.Shed, "draining": pr.Draining,
		"canceled": pr.Canceled, "down": pr.Down, "error": pr.Errors} {
		if n > 0 {
			dp.Failed[status] = n
		}
	}
	if n := len(windows); n > 1 {
		windows = windows[:n-1] // the last window is partial: the phase ends inside it
	}
	dp.Lat = windowedPercentiles(windows)
	return dp
}

// dataRoot is where this process keeps WAL directories and spools; execute
// removes it when the run ends. The pid keeps concurrent runs apart.
func dataRoot(rc runConfig) string {
	return filepath.Join(rc.OutDir, fmt.Sprintf("data-%d", os.Getpid()))
}

// freshDir returns an empty directory under the run's data root.
func freshDir(rc runConfig, name string) (string, error) {
	dir := filepath.Join(dataRoot(rc), name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// bootFresh boots a server on a fresh directory under the run's data dir.
// The directory outlives stop() — the caller may reopen it or audit its
// spool — and is removed with the run's data dir at the end.
func bootFresh(rc runConfig, name string, spool bool, tr *tracer) (*serveWorld, error) {
	dir, err := freshDir(rc, name)
	if err != nil {
		return nil, err
	}
	spoolPath := ""
	if spool {
		spoolPath = filepath.Join(dir, "history.spool")
	}
	return startServe(serveConfig(filepath.Join(dir, "wal"), spoolPath), tr)
}

// servePhase is the common case: fresh server, one load phase, graceful
// shutdown.
func servePhase(rc runConfig, name string, spool bool, tr *tracer, ds driveSpec) (drivePass, serve.Config, error) {
	w, err := bootFresh(rc, name, spool, tr)
	if err != nil {
		return drivePass{}, serve.Config{}, err
	}
	dp := w.drive(context.Background(), ds)
	return dp, w.cfg, w.stop()
}

// reopen boots a server over the directory a phase left, times the boot to
// Accepting(), and checks that every transaction the phase acknowledged is
// durable. (This is a graceful-shutdown reopen; kill -9 durability is the
// nightly soak's job.)
func reopen(cfg serve.Config, acked []string) (time.Duration, checkResult) {
	ck := checkResult{Name: "acked_durable_after_reopen"}
	cfg.SpoolPath = ""
	t0 := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		ck.Detail = err.Error()
		return 0, ck
	}
	boot := time.Since(t0)
	if !srv.Accepting() {
		ck.Detail = "server not accepting after reopen"
	}
	lost := 0
	for _, id := range acked {
		if !srv.Durable(model.TxnID(id)) {
			lost++
			if ck.Detail == "" {
				ck.Detail = "lost ack " + id
			}
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil && ck.Detail == "" {
		ck.Detail = "shutdown after reopen: " + err.Error()
	}
	ck.OK = lost == 0 && ck.Detail == ""
	if ck.OK {
		ck.Detail = fmt.Sprintf("%d acks", len(acked))
	}
	return boot, ck
}

func runServeDurable(rc runConfig) (*runReport, error) {
	rep := newReport("serve_durable", rc, serveConnections)
	if rc.Trace {
		return rep, traceServeDurable(rc, rep)
	}

	closed := rc.scaled(serveClosedPerSecond, 200)
	// Half the budget at the rung's rate, and never less than one full
	// latency window plus its partial tail.
	openTxns := rc.fixed(serveOpenRate*rc.Seconds/2, serveOpenRate*5/4)
	rep.RequestHash = requestHash(rep.Workload, rc.Seed, closed)

	rep.Notes = append(rep.Notes, fmt.Sprintf("client: %d keep-alive connections, %d sessions; closed loop %d x %d txns, then open loop %d txns at %d txn/s",
		serveConnections, serveSessions, serveClosedRepeats, closed, openTxns, serveOpenRate))
	setupS, err := timeSetups(serveSetupReps, func() (func(), error) {
		w, err := bootFresh(rc, "setup", false, nil)
		if err != nil {
			return nil, err
		}
		return func() { w.stop() }, nil
	})
	if err != nil {
		return nil, err
	}

	// The closed-loop phase runs serveClosedRepeats times, each on a fresh
	// server and directory with its own stretch of the request list, and
	// the run reports the median phase: the sandbox's disk and scheduler
	// slow a few seconds at a time, and a median of three ignores one.
	var loads []*passResult
	for k := 0; k < serveClosedRepeats; k++ {
		load, cfg, err := servePhase(rc, fmt.Sprintf("closed-%d", k), false, nil,
			driveSpec{seed: rc.Seed + int64(k)<<40, txns: closed, keepIDs: true})
		if err != nil {
			return nil, err
		}
		rep.count(&load.passResult)
		_, ck := reopen(cfg, load.AckedIDs)
		rep.checkPhase(fmt.Sprintf("closed-%d", k), ck)
		loads = append(loads, &load.passResult)
	}

	open, _, err := servePhase(rc, "open", false, nil, driveSpec{seed: rc.Seed + 1<<32, txns: openTxns, rate: serveOpenRate})
	if err != nil {
		return nil, err
	}
	rep.count(&open.passResult)
	rep.endToEndFrom(setupS, serveSetupReps, loads, &open.passResult)
	return rep, nil
}

// traceServeDurable is the -trace 1 run: audited phase, plain and traced
// passes, the rate ladder, the reopen, and the serve/wal probes.
func traceServeDurable(rc runConfig, rep *runReport) error {
	// Audited phase: the durable spool, checked by the independent checker.
	audited := rc.fixed(serveAuditedTxns, 100)
	ap, acfg, err := servePhase(rc, "audited", true, nil, driveSpec{seed: rc.Seed + 2<<32, txns: audited})
	if err != nil {
		return err
	}
	rep.count(&ap.passResult)
	hck := checkResult{Name: "spool_correctable"}
	if h, err := history.ReadSpoolFile(acfg.SpoolPath); err != nil {
		hck.Detail = err.Error()
	} else if hrep, err := history.Check(h); err != nil {
		hck.Detail = err.Error()
	} else if !hrep.Correctable {
		hck.Detail = hrep.Summary()
	} else {
		hck.OK, hck.Detail = true, fmt.Sprintf("%d steps, %d txns", hrep.Steps, hrep.Txns)
	}
	rep.check(hck)

	// Plain pass: the server's own counters, read from its public Stats()
	// while the load runs and once more before shutdown.
	n := rc.fixed(serveTracedTxns, 300)
	rep.RequestHash = requestHash(rep.Workload, rc.Seed, n)
	pw, err := bootFresh(rc, "plain", false, nil)
	if err != nil {
		return err
	}
	var queuedMax int64
	stopPoll, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				var q int64
				for _, g := range pw.srv.Stats().Gates {
					q += g.Queued
				}
				queuedMax = max(queuedMax, q)
			}
		}
	}()
	plain := pw.drive(context.Background(), driveSpec{seed: rc.Seed, txns: n, keepIDs: true})
	close(stopPoll)
	<-polled
	final := pw.srv.Stats()
	pcfg := pw.cfg
	if err := pw.stop(); err != nil {
		return err
	}
	rep.count(&plain.passResult)
	rep.Metrics["serve.shed"] = float64(final.Shed)
	rep.Metrics["serve.budget_denied"] = float64(final.BudgetDenied)
	rep.Metrics["serve.deadline"] = float64(final.Deadline)
	rep.Metrics["serve.gate_queued_max"] = float64(queuedMax)
	rep.Metrics["wal.max_batch"] = float64(final.WAL.MaxBatch)
	if final.WAL.Txns > 0 {
		rep.Metrics["wal.flushes_per_txn"] = float64(final.WAL.Flushes) / float64(final.WAL.Txns)
	}
	rep.Metrics["wal.bytes_per_txn"] = plain.perTxn(float64(plain.Cost.written))
	rep.Metrics["engine.restarts_per_txn"] = float64(final.Engine.Restarts) / float64(max(final.Engine.Committed, 1))
	rep.Metrics["sched.waits_per_txn"] = float64(final.Sched.Waits) / float64(max(final.Engine.Committed, 1))
	rep.Metrics["sched.wounds_per_txn"] = float64(final.Sched.Wounds) / float64(max(final.Engine.Committed, 1))
	rep.Metrics["harness.failed_share"] = float64(plain.failedCount()) / float64(plain.Offered)
	rep.Metrics["cpu_us_per_txn"] = cpuPerTxn(&plain.passResult)
	rep.Metrics["peak_rss_mb"] = peakRSSMB() // before the traced pass fills memory with spans

	boot, ck := reopen(pcfg, plain.AckedIDs)
	rep.check(ck)
	rep.Metrics["serve.restart_ms"] = float64(boot.Microseconds()) / 1e3

	// Traced pass: same list, spans on.
	tr := newTracer()
	traced, _, err := servePhase(rc, "traced", false, tr, driveSpec{seed: rc.Seed, txns: n})
	if err != nil {
		return err
	}
	rep.count(&traced.passResult)
	if err := rep.traceMetrics(rc, &plain.passResult, &traced.passResult, tr); err != nil {
		return err
	}

	// The ladder: each rung on a fresh server and directory.
	rungTxns := func(rate int) int { return rc.fixed(rate*ladderSeconds, rate/4) }
	var rungs []rungResult
	for _, rate := range serveLadder {
		dp, _, err := servePhase(rc, fmt.Sprintf("rung-%d", rate), false, nil,
			driveSpec{seed: rc.Seed + int64(rate)<<32, txns: rungTxns(rate), rate: float64(rate)})
		if err != nil {
			return err
		}
		rep.count(&dp.passResult)
		rr := rungOf(rate, &dp)
		rungs = append(rungs, rr)
		rep.Metrics[fmt.Sprintf("serve.ladder_p99_us_at_%d", rate)] = rr.P99US
		if rate == serveOpenRate {
			// The rung -trace 0 prints its latency notes from.
			rep.Metrics["lat_p50_us"] = median(dp.Lat.P50s) / 1e3
			rep.Metrics["lat_p99_us"] = rr.P99US
			rep.Samples["lat_p50_us"], rep.Samples["lat_p99_us"] = dp.Lat.Samples, dp.Lat.Samples
			rep.Metrics["gen.late_p99_us"] = percentileOfUnsorted(dp.LateNS, 99) / 1e3
			rep.Metrics["serve.http_overhead_us"] = percentileOfUnsorted(dp.OverheadUS, 50)
			rep.Samples["gen.late_p99_us"] = len(dp.LateNS)
		}
	}
	rep.Metrics["serve.max_rate_in_slo"] = maxRateInSLO(rungs, float64(serveSLOp99.Microseconds()))
	return probeServeLayers(rc, rep)
}
