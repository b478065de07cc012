// Package serve is the long-lived service front-end over the resident
// engine: one engine.Session kept warm for the life of the process, with
// thousands of concurrent client sessions multiplexed onto the banking
// nest structure over a JSON HTTP API (cmd/mlaserve).
//
// The package exists to close the loop the batch tools cannot: Run and
// RunOnStore take a fixed transaction population and report afterwards,
// but the paper's motivating systems — airline reservation, banking — are
// *open* systems where transactions arrive forever and the interesting
// engineering is at the admission boundary. Everything here is about that
// boundary:
//
//   - Admission control: bounded queues per nest class plus a global
//     in-flight cap. When the scheduler saturates (waits pile up, commit
//     latency grows), requests are shed with 429 and a Retry-After derived
//     from the observed commit-latency EWMA scaled by queue pressure —
//     load shedding informed by sched.Stats rather than a blind counter.
//   - Deadlines: every transaction carries one (client-supplied or the
//     server default). The engine aborts it at its next breakpoint — a
//     runnable transaction finishes the unit it started, so nothing
//     partial is ever exposed, which is precisely the MLA notion of a
//     cheap place to change the schedule's mind.
//   - Backpressure to the client: deadline rollbacks are 408, shed
//     admissions 429, exhausted retry budgets 429, drain 503 — each with
//     enough structure (retry_after_ms) for a well-behaved client to back
//     off instead of hammering.
//   - Graceful drain: SIGTERM stops admission (readyz flips), in-flight
//     transactions run to their natural ends, and the WAL pipeline is
//     flushed and closed. A commit acknowledged with 200 is durable on the
//     WAL before the acknowledgment is written.
//
// With Config.SpoolPath the server appends the full execution history to a
// file-backed history.Recorder (the type the batch paths keep in memory)
// as it happens, so `mlacheck -history` can audit a run — live, drained, or
// killed: the black-box checker either blesses the multiplexed execution as
// multilevel atomic or produces a witness cycle.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mla/internal/bank"
	"mla/internal/engine"
	"mla/internal/fault"
	"mla/internal/history"
	"mla/internal/lock"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/telemetry"
	"mla/internal/wal"
)

// Config sizes the server. The zero value is unusable; call DefaultConfig
// and override.
type Config struct {
	// Families and AccountsPerFamily shape the banking world the clients
	// transact against; InitialBalance seeds every account.
	Families          int
	AccountsPerFamily int
	InitialBalance    model.Value

	// Control selects the concurrency control: "2pl-sharded" (default),
	// "2pl", or "tso". Shards sizes the sharded control's lock table.
	Control string
	Shards  int

	// MaxInflight caps transactions inside the engine at once; QueueDepth
	// bounds each admission class's queue on top of that. AdmitWait is how
	// long a request may wait for admission before it is shed with 429.
	MaxInflight int
	QueueDepth  int
	AdmitWait   time.Duration

	// DefaultDeadline bounds a transaction that did not bring its own;
	// MaxDeadline clamps client-supplied ones.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxRestarts bounds rollbacks per transaction; SessionRetryBudget is
	// the total restarts one client session may consume across all its
	// transactions before further submissions are refused with 429 — the
	// per-session retry budget that stops one pathological client from
	// burning the whole engine on livelock.
	SessionRetryBudget int
	MaxRestarts        int

	// DataDir, when non-empty, makes the WAL real: a segmented on-disk log
	// under this directory (created if needed) replaces the in-memory
	// medium. The server recovers from it on start — committed work from
	// previous boots is replayed, losers are rolled back — and session and
	// transaction identifiers bake in the boot epoch so they never collide
	// across restarts.
	DataDir string

	// SegmentBytes is the on-disk WAL's segment rotation size (0 = the
	// wal package default). Only meaningful with DataDir.
	SegmentBytes int64

	// CheckpointEvery enables compacting checkpoints: once the log grows
	// this many records past the last checkpoint, the pipeline compacts at
	// the next quiescent flush boundary, bounding recovery replay and the
	// segment files (the archive gains one small frame). 0 disables.
	CheckpointEvery int

	// DiskFaults injects deterministic disk faults (transient write/fsync
	// errors, short writes, ENOSPC, latency spikes) between the WAL and the
	// OS. Zero value injects nothing. Only meaningful with DataDir.
	DiskFaults fault.Plan

	// SpoolPath, when non-empty, appends every history event to a durable
	// JSONL spool (history.SpoolFormat) as it happens, through the same
	// history.Recorder the batch paths check in memory — the black-box
	// witness mlacheck audits, in O(1) memory, whether the process drained
	// or died by kill -9. With DataDir the file accumulates across boots
	// (the boot epoch keeps identifiers apart); without it every boot mints
	// the same identifiers, so New starts the file empty.
	SpoolPath string

	// Seed drives every synthesized workload choice deterministically.
	Seed int64

	// Telemetry, when non-nil, receives request spans and engine spans.
	Telemetry *telemetry.Telemetry
}

// Synthesized transfers move the paper's $100 and top the first deposit up
// to $125, as bank.Params does; crossFamilyPct percent go to another family.
const (
	transferAmount, transferReserve model.Value = 100, 125
	crossFamilyPct                              = 50
)

// DefaultConfig returns a small-but-real configuration: contended enough
// to exercise waits and wounds, bounded enough for CI.
func DefaultConfig() Config {
	return Config{
		Families:           8,
		AccountsPerFamily:  4,
		InitialBalance:     1000,
		Control:            "2pl-sharded",
		Shards:             16,
		MaxInflight:        64,
		QueueDepth:         128,
		AdmitWait:          20 * time.Millisecond,
		DefaultDeadline:    2 * time.Second,
		MaxDeadline:        30 * time.Second,
		SessionRetryBudget: 256,
		MaxRestarts:        32,
		Seed:               1,
	}
}

// Server is the resident front-end. Create with New, serve it through a
// Front (whose Drain is Shutdown). All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	session *engine.Session
	control sched.Control
	medium  *wal.Medium
	db      *wal.DB
	pipe    *wal.Pipeline
	spool   *history.Recorder
	epoch   int64 // boot count of DataDir; 0 when in-memory

	// pop builds every synthesized program with its class path; its Spec is
	// the engine's breakpoint rule.
	pop *bank.Population

	gates  map[string]*gate // admission queue per nest class
	global *gate            // engine-wide in-flight cap

	mu       sync.RWMutex
	state    int32 // accepting / draining / closed
	sessions map[string]*clientSession
	nextSess int64
	err      error // first fatal engine error

	shutOnce sync.Once
	shutErr  error

	txnSeq atomic.Int64 // transaction ID allocator (unique per lifetime)

	ewmaLatUs atomic.Int64 // commit latency EWMA, µs — drives Retry-After

	latMu  sync.Mutex
	lat    *metrics.Histogram // commit latencies since boot, µs
	waited *metrics.Histogram // lock-wait time per committed txn since boot, µs

	counters counters

	spanMu sync.Mutex
	spans  *telemetry.Local
	pid    int64
}

const (
	stAccepting int32 = iota
	stDraining
	stClosed
	// stDegraded is the read-only shedding mode a persistent durable-medium
	// failure puts the server in: writes are refused with 503 + Retry-After,
	// durability lookups and stats still answer, healthz reports the cause.
	stDegraded
)

// counters are the server-level outcome tallies /metrics exposes; all
// atomics so the request path never takes the server mutex.
type counters struct {
	acked, deadline, canceled, gaveUp, shed, budget, rejected atomic.Int64
}

// clientSession is one client's handle: a stable identity, a pinned
// family (its nest class for transfers), a deterministic parameter rng, and
// the remaining retry budget.
type clientSession struct {
	id     string
	family int

	budget atomic.Int64 // restarts left

	mu  sync.Mutex
	rng *rand.Rand
}

// ID returns the session's stable identity.
func (cs *clientSession) ID() string { return cs.id }

// Family returns the session's pinned family (its transfer nest class).
func (cs *clientSession) Family() int { return cs.family }

// New builds the world, opens the WAL, starts the group-commit pipeline
// and the resident engine session. The server is accepting immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Families <= 0 || cfg.AccountsPerFamily <= 0 {
		return nil, fmt.Errorf("serve: need at least one family and account, got %d/%d", cfg.Families, cfg.AccountsPerFamily)
	}
	if cfg.MaxInflight <= 0 {
		return nil, fmt.Errorf("serve: MaxInflight must be positive, got %d", cfg.MaxInflight)
	}
	// Before DataDir is mounted: a refused boot must not bump its epoch.
	control := controlByName(cfg.Control, cfg.Shards)
	if control == nil {
		return nil, fmt.Errorf("serve: unknown control %q", cfg.Control)
	}
	w := bank.World{
		Families:          cfg.Families,
		AccountsPerFamily: cfg.AccountsPerFamily,
		InitialBalance:    cfg.InitialBalance,
	}
	// The durable medium: a real on-disk segment log when DataDir is set
	// (recovery replays it before the first request is admitted), the
	// in-memory simulation otherwise.
	medium := wal.NewMedium()
	if cfg.DataDir != "" {
		var inj *fault.Injector
		if cfg.DiskFaults.DiskEnabled() {
			inj = fault.New(cfg.DiskFaults)
		}
		m, err := wal.OpenFile(cfg.DataDir, wal.FileOptions{SegmentBytes: cfg.SegmentBytes, Faults: inj})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		medium = m
	}
	db, err := wal.Open(medium, w.Init())
	if err != nil {
		medium.Close()
		return nil, fmt.Errorf("serve: opening WAL: %w", err)
	}
	pipe := wal.NewPipeline(db, 0)
	pipe.AutoCheckpoint(cfg.CheckpointEvery)

	s := &Server{
		cfg: cfg,
		// No control reads classes, so no nest; a spool declares them.
		pop:      bank.NewPopulation(w, transferAmount, transferReserve, nil, cfg.SpoolPath != ""),
		control:  control,
		medium:   medium,
		db:       db,
		pipe:     pipe,
		epoch:    medium.Recovery().Epoch,
		sessions: make(map[string]*clientSession),
		lat:      metrics.NewHistogram(),
		waited:   metrics.NewHistogram(),
	}
	// Admission: one bounded queue per nest class — "cust" admits the
	// level-2/3 interleavers (transfers and creditor audits), "audit" the
	// level-1 bank audits — plus the global in-flight cap underneath.
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = cfg.MaxInflight
	}
	s.gates = map[string]*gate{classCust: newGate(depth), classAudit: newGate(depth)}
	s.global = newGate(cfg.MaxInflight)

	var obs []engine.Observer
	if cfg.SpoolPath != "" {
		sp, err := openSpool(cfg)
		if err != nil {
			pipe.Close()
			medium.Close()
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.spool = sp
		obs = append(obs, sp)
	}
	if cfg.Telemetry != nil {
		obs = append(obs, engine.NewTelemetryObserver(cfg.Telemetry, "serve/"+s.control.Name()))
		s.spans = cfg.Telemetry.Trace.Local()
		s.pid = cfg.Telemetry.Trace.NextPID()
		cfg.Telemetry.Trace.NameProcess(s.pid, "serve/http")
		cfg.Telemetry.Trace.NameLane(s.pid, 0, "requests")
	}

	s.session = engine.NewSession(engine.Config{
		Seed:        cfg.Seed,
		Observer:    engine.Tee(obs...),
		MaxRestarts: cfg.MaxRestarts,
	}, s.control, s.pop.Spec, engine.NewPipelinedWALStore(pipe))
	return s, nil
}

const (
	classCust  = "cust"
	classAudit = "audit"
)

// kindClass maps each transaction kind synthesize builds to its admission class.
var kindClass = map[string]string{"": classCust, "transfer": classCust, "credit": classCust, "audit": classAudit}

// openSpool opens the history spool, emptied first for an in-memory server
// (see Config.SpoolPath: without a boot epoch an earlier run left in the file
// would replay as "committed twice").
func openSpool(cfg Config) (*history.Recorder, error) {
	if cfg.DataDir == "" {
		if err := os.Truncate(cfg.SpoolPath, 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("starting a new history spool: %w", err)
		}
	}
	return history.OpenSpoolFile(cfg.SpoolPath, 4)
}

func controlByName(name string, shards int) sched.Control {
	switch name {
	case "", "2pl-sharded":
		return sched.NewShardedTwoPhase(shards)
	case "2pl":
		return sched.NewTwoPhase()
	case "tso":
		return sched.NewTimestamp()
	}
	return nil
}

// OpenSession registers a client session pinned to the given family (< 0
// picks one deterministically). It fails once draining.
func (s *Server) OpenSession(family int) (*clientSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch atomic.LoadInt32(&s.state) { // Shutdown and noteFailure write it without mu
	case stAccepting:
	case stDegraded:
		return nil, fmt.Errorf("serve: read-only: %w", wal.ErrDegraded)
	default:
		return nil, ErrDraining
	}
	s.nextSess++
	// The boot epoch prefixes every session (and hence transaction) ID so
	// identifiers never collide across restarts of the same data directory
	// — the concatenated history spool depends on that uniqueness.
	id := fmt.Sprintf("s%06d", s.nextSess)
	if s.epoch > 0 {
		id = fmt.Sprintf("e%d-s%06d", s.epoch, s.nextSess)
	}
	if family < 0 || family >= s.cfg.Families {
		family = int(s.nextSess) % s.cfg.Families
	}
	cs := &clientSession{id: id, family: family, rng: rand.New(rand.NewSource(s.cfg.Seed ^ s.nextSess<<17))}
	cs.budget.Store(int64(s.cfg.SessionRetryBudget))
	s.sessions[id] = cs
	return cs, nil
}

// CloseSession forgets a client session; its in-flight transactions finish.
func (s *Server) CloseSession(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	return ok
}

func (s *Server) lookupSession(id string) *clientSession {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// sessionID returns the id of the open session named b without allocating,
// or b as a string when no such session is open.
func (s *Server) sessionID(b []byte) string {
	s.mu.RLock()
	cs := s.sessions[string(b)]
	s.mu.RUnlock()
	if cs == nil {
		return string(b)
	}
	return cs.id
}

// ErrDraining rejects work arriving after Shutdown began.
var ErrDraining = errors.New("serve: draining")

// ErrOverload is the shed signal: admission timed out or the session's
// retry budget is spent. Carries no state — pair it with RetryAfter.
var ErrOverload = errors.New("serve: overloaded")

// ErrUnknownSession rejects a transaction naming a session that was never
// opened or was already closed.
var ErrUnknownSession = errors.New("serve: unknown session")

// TxnRequest describes one transaction submission.
type TxnRequest struct {
	Session  string
	Kind     string // "transfer", "audit", "credit"
	Deadline time.Duration
}

// TxnResult reports a resolved submission to the transport layer.
type TxnResult struct {
	Txn     model.TxnID
	Outcome engine.Outcome
}

// Submit synthesizes the requested transaction, admits it through the
// class and global gates, and runs it on the resident engine. The context
// is the client connection: its cancellation withdraws the transaction at
// the next breakpoint (unless the commit is already in flight — then it is
// seen through, because the record may be durable).
func (s *Server) Submit(ctx context.Context, req TxnRequest) (TxnResult, error) {
	cs := s.lookupSession(req.Session)
	if cs == nil {
		return TxnResult{}, fmt.Errorf("%w: %q", ErrUnknownSession, req.Session)
	}
	switch atomic.LoadInt32(&s.state) {
	case stAccepting:
	case stDegraded:
		// Read-only shedding mode: the durable medium is gone, so no new
		// write can ever be acknowledged honestly. Lookups still work.
		s.counters.rejected.Add(1)
		return TxnResult{}, fmt.Errorf("serve: read-only: %w", wal.ErrDegraded)
	default:
		s.counters.rejected.Add(1)
		return TxnResult{}, ErrDraining
	}

	// Malformed input is answered at once, even on a saturated server: an
	// unknown kind neither queues nor takes a transaction number.
	class, ok := kindClass[req.Kind]
	if !ok {
		return TxnResult{}, fmt.Errorf("serve: unknown transaction kind %q", req.Kind)
	}

	// Per-session retry budget: a session that has burned its restart
	// allowance is shed before it can queue — its backlog of conflicts is
	// the strongest overload signal a single client can emit.
	budgetLeft := int(cs.budget.Load())
	if budgetLeft <= 0 {
		s.counters.budget.Add(1)
		return TxnResult{}, fmt.Errorf("%w: session %s retry budget exhausted", ErrOverload, cs.id)
	}

	g := s.gates[class]
	if !g.acquire(ctx, s.cfg.AdmitWait) {
		s.counters.shed.Add(1)
		return TxnResult{}, fmt.Errorf("%w: %s queue full", ErrOverload, class)
	}
	defer g.release()
	if !s.global.acquire(ctx, s.cfg.AdmitWait) {
		s.counters.shed.Add(1)
		return TxnResult{}, fmt.Errorf("%w: engine at capacity", ErrOverload)
	}
	defer s.global.release()

	p, path, err := s.synthesize(cs, req.Kind)
	if err != nil {
		return TxnResult{}, err
	}
	id := p.ID()

	d := req.Deadline
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}

	maxRestarts := s.cfg.MaxRestarts
	if maxRestarts <= 0 || maxRestarts > budgetLeft {
		maxRestarts = budgetLeft
	}

	start := time.Now()
	var spanID telemetry.SpanID
	if s.spans != nil {
		s.spanMu.Lock()
		spanID = s.spans.Begin("serve", req.Kind, s.pid, 0, 0, "txn", string(id), "session", cs.id)
		s.spanMu.Unlock()
	}
	out, err := s.session.Submit(ctx, p, engine.SubmitOpts{
		Deadline:    start.Add(d),
		MaxRestarts: maxRestarts,
		Prepare: func() {
			// Under the engine mutex: the spec and the spool see the
			// transaction's class before its first step.
			s.pop.Prepare(p, path)
			if s.spool != nil {
				s.spool.Declare(id, path)
			}
		},
		Cleanup: func() { s.pop.Cleanup(id) },
	})
	if s.spans != nil {
		s.spanMu.Lock()
		s.spans.Arg(spanID, "outcome", outcomeLabel(out, err))
		s.spans.End(spanID)
		s.spanMu.Unlock()
	}
	if err != nil {
		// Admission raced the drain: the engine refused what the state
		// check upstairs had let through. Same 503 as the state check.
		if errors.Is(err, engine.ErrDraining) {
			s.counters.rejected.Add(1)
			return TxnResult{}, ErrDraining
		}
		if errors.Is(err, engine.ErrSessionClosed) {
			// A real engine death while accepting turns healthz red; the
			// same error during a deliberate drain is just the shutdown
			// abandoning stragglers.
			if atomic.LoadInt32(&s.state) == stAccepting {
				s.noteFailure(err)
			}
		}
		return TxnResult{}, err
	}

	cs.budget.Add(-int64(out.Restarts))

	switch {
	case out.Committed:
		s.counters.acked.Add(1)
		us := out.Latency.Microseconds()
		s.observeLatency(us, out.Waited.Microseconds())
	case out.DeadlineExceeded:
		s.counters.deadline.Add(1)
	case out.Canceled:
		s.counters.canceled.Add(1)
	case out.GaveUp:
		s.counters.gaveUp.Add(1)
	}
	return TxnResult{Txn: id, Outcome: out}, nil
}

func outcomeLabel(out engine.Outcome, err error) string {
	switch {
	case err != nil:
		return "error"
	case out.Committed:
		return "committed"
	case out.DeadlineExceeded:
		return "deadline"
	case out.Canceled:
		return "canceled"
	case out.GaveUp:
		return "gave-up"
	}
	return "unknown"
}

func (s *Server) observeLatency(latUs, waitedUs int64) {
	// EWMA with α = 1/8, the classic RTT estimator: smooth enough to damp
	// one slow commit, fresh enough to track a saturating scheduler.
	for {
		old := s.ewmaLatUs.Load()
		next := old - old/8 + latUs/8
		if old == 0 {
			next = latUs
		}
		if s.ewmaLatUs.CompareAndSwap(old, next) {
			break
		}
	}
	s.latMu.Lock()
	s.lat.Record(latUs)
	s.waited.Record(waitedUs)
	s.latMu.Unlock()
}

// RetryAfter is the backoff hint attached to 429/503: the commit-latency
// EWMA scaled by queue pressure — an idle server hints the floor, a
// saturated one stretches toward the ceiling. Clamped to [50ms, 5s].
func (s *Server) RetryAfter() time.Duration {
	base := time.Duration(s.ewmaLatUs.Load()) * time.Microsecond
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	queued, depth := int64(0), int64(0)
	for _, g := range s.gates {
		queued += g.queued.Load()
		depth += int64(g.depth)
	}
	queued += s.global.queued.Load()
	depth += int64(s.global.depth)
	d := base
	if depth > 0 {
		d = base * time.Duration(1+4*queued/depth)
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// synthesize builds the program for one request through the banking
// application, drawing a transfer's accounts from the session's
// deterministic rng. Returns the program and its nest class path (for an
// audit or credit, only when a spool will declare it).
func (s *Server) synthesize(cs *clientSession, kind string) (model.Program, []string, error) {
	n := s.txnSeq.Add(1)
	switch kind {
	case "", "transfer":
		id := mintID("xfer-", cs.id, n)
		cs.mu.Lock()
		tr, path := s.pop.DrawTransfer(cs.rng, id, cs.family, crossFamilyPct)
		cs.mu.Unlock()
		return tr, path, nil
	case "audit":
		a, path := s.pop.Audit(mintID("audit-", cs.id, n))
		return a, path, nil
	case "credit":
		a, path := s.pop.Credit(mintID("cred-", cs.id, n), cs.family)
		return a, path, nil
	}
	return nil, nil, fmt.Errorf("serve: unknown transaction kind %q", kind)
}

// mintID is fmt.Sprintf("%s%s-%07d", prefix, session, n) without fmt.
func mintID(prefix, session string, n int64) model.TxnID {
	var buf [48]byte
	b := append(append(append(buf[:0], prefix...), session...), '-')
	for pad := int64(1_000_000); pad > 1 && n < pad; pad /= 10 {
		b = append(b, '0')
	}
	return model.TxnID(strconv.AppendInt(b, n, 10))
}

func (s *Server) noteFailure(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	if errors.Is(err, wal.ErrDegraded) {
		// The engine died because the DISK died. The in-memory state and
		// the committed prefix are intact, so shed writes and keep serving
		// reads instead of going dark.
		atomic.CompareAndSwapInt32(&s.state, stAccepting, stDegraded)
		return
	}
	atomic.CompareAndSwapInt32(&s.state, stAccepting, stClosed)
}

// Degraded reports whether the server is in read-only shedding mode.
func (s *Server) Degraded() bool { return atomic.LoadInt32(&s.state) == stDegraded }

// Err reports the first fatal engine error, if any (healthz turns red).
func (s *Server) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.err
}

// Accepting reports whether new work is admitted (readyz).
func (s *Server) Accepting() bool { return atomic.LoadInt32(&s.state) == stAccepting }

// Shutdown is the graceful drain: stop admitting, let in-flight
// transactions reach their breakpoints and resolve, stop the engine, flush
// and close the WAL pipeline, compact the log at the final quiescent
// instant, and release the durable medium and the history spool. Every
// committed acknowledgment issued before Shutdown returns is durable on
// the WAL afterwards, and a clean shutdown leaves the log empty behind a
// checkpoint — the next boot's recovery replays (almost) nothing. Idempotent;
// the context bounds only the waiting (a timed-out drain still closes).
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		atomic.CompareAndSwapInt32(&s.state, stAccepting, stDraining)
		derr := s.session.Drain(ctx)
		cerr := s.session.Close()
		s.pipe.Close()
		// The engine is stopped and the pipeline's flusher joined: the DB
		// is single-threaded again. Seal the log with a compacting
		// checkpoint when the drain actually quiesced (a failed engine or
		// an abandoned straggler leaves live records — then the WAL keeps
		// its full tail and recovery does the rolling back).
		if s.pipe.Err() == nil && s.db.Live() == 0 {
			if err := s.db.CheckpointCompact(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
		}
		if err := s.medium.Close(); err != nil && s.shutErr == nil {
			s.shutErr = err
		}
		if s.spool != nil {
			s.spool.Close()
		}
		atomic.StoreInt32(&s.state, stClosed)
		if derr != nil {
			s.shutErr = derr
		} else if cerr != nil {
			s.shutErr = cerr
		}
	})
	return s.shutErr
}

// Durable reports whether the transaction's commit record reached the WAL
// — the selftest's ground truth for acknowledged commits, and (through
// GET /v1/txns/{id}) the soak's restart re-verification oracle: after a
// kill -9 the committed set is rebuilt from the checkpoint archive and the
// on-disk log, so every commit acked by ANY previous boot answers true here.
func (s *Server) Durable(id model.TxnID) bool { return s.pipe.Committed(id) }

// RecoveryInfo reports what this boot's WAL load found (zero value for an
// in-memory server): the epoch, the records replayed, the replay distance
// from the last checkpoint, and any torn bytes truncated.
func (s *Server) RecoveryInfo() wal.RecoveryInfo { return s.medium.Recovery() }

// Stats is the /metrics payload: engine, scheduler, lock table, admission,
// and latency state in one snapshot.
type Stats struct {
	Sessions     int
	Engine       engine.SessionStats
	Sched        sched.Stats
	Locks        *lock.Stats // nil unless the control has a striped lock table
	Gates        map[string]GateStats
	Acked        int64
	Deadline     int64
	Canceled     int64
	GaveUp       int64
	Shed         int64
	BudgetDenied int64
	Rejected     int64
	Latency      metrics.Summary // every commit since boot, µs
	LockWait     metrics.Summary // every commit since boot, µs
	RetryAfterMS int64

	// WAL is the group-commit pipeline's counters (flushes, batch sizes,
	// compacting checkpoints, degraded flag).
	WAL wal.PipelineStats
	// SinceCheckpoint is the current recovery replay bound: records a
	// restart right now would redo.
	SinceCheckpoint int
	// Recovery reports what this boot's WAL load found; nil for in-memory
	// servers.
	Recovery *wal.RecoveryInfo
}

// GateStats snapshots one admission gate.
type GateStats struct {
	Depth    int
	Inflight int64
	Queued   int64
	Admitted int64
	Shed     int64
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	nSess := len(s.sessions)
	s.mu.RUnlock()
	st := Stats{
		Sessions:     nSess,
		Engine:       s.session.Stats(),
		Sched:        s.session.ControlStats(),
		Gates:        make(map[string]GateStats, len(s.gates)+1),
		Acked:        s.counters.acked.Load(),
		Deadline:     s.counters.deadline.Load(),
		Canceled:     s.counters.canceled.Load(),
		GaveUp:       s.counters.gaveUp.Load(),
		Shed:         s.counters.shed.Load(),
		BudgetDenied: s.counters.budget.Load(),
		Rejected:     s.counters.rejected.Load(),
		RetryAfterMS: s.RetryAfter().Milliseconds(),
	}
	if lp, ok := s.control.(interface{ LockSnapshot() lock.Stats }); ok {
		ls := lp.LockSnapshot()
		st.Locks = &ls
	}
	for name, g := range s.gates {
		st.Gates[name] = g.snapshot()
	}
	st.Gates["inflight"] = s.global.snapshot()
	s.latMu.Lock()
	st.Latency = s.lat.Summary()
	st.LockWait = s.waited.Summary()
	s.latMu.Unlock()
	st.WAL = s.pipe.Snapshot()
	st.SinceCheckpoint = s.pipe.RecordsSinceCheckpoint()
	if info := s.medium.Recovery(); info.Epoch > 0 {
		st.Recovery = &info
	}
	return st
}

// gate is one bounded admission stage: a counting semaphore whose waiters
// give up after the configured admission wait — that bounded wait IS the
// queue (depth beyond the semaphore is the set of parked requesters, which
// HTTP already caps by its connection limits).
type gate struct {
	depth int
	slots chan struct{}

	queued   atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

func newGate(depth int) *gate {
	return &gate{depth: depth, slots: make(chan struct{}, depth)}
}

// acquire takes a slot, waiting at most wait; false means shed.
func (g *gate) acquire(ctx context.Context, wait time.Duration) bool {
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return true
	default:
	}
	g.queued.Add(1)
	defer g.queued.Add(-1)
	tm := time.NewTimer(wait)
	defer tm.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return true
	case <-tm.C:
	case <-ctx.Done():
	}
	g.shed.Add(1)
	return false
}

func (g *gate) release() { <-g.slots }

func (g *gate) snapshot() GateStats {
	return GateStats{
		Depth:    g.depth,
		Inflight: int64(len(g.slots)),
		Queued:   g.queued.Load(),
		Admitted: g.admitted.Load(),
		Shed:     g.shed.Load(),
	}
}
