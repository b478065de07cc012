package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/storage"
)

// Session is the engine: one running scheduler whose transactions arrive
// over time from many goroutines. A long-lived service front-end
// (internal/serve) keeps one open; Run/RunOnStore is the other driver — it
// opens a session, submits a fixed batch, and closes it.
//
// One loop, two drivers:
//
//   - Submit admits one transaction into the already-running scheduler and
//     blocks the calling goroutine until the transaction durably commits,
//     exhausts its restart budget, hits its deadline, or its client walks
//     away. Bounds are per submission; the batch driver adds its whole-run
//     timeout on top by failing the session.
//   - Per-submission deadlines abort at breakpoints: a runnable transaction
//     finishes the unit it started before its rollback, a blocked one rolls
//     back in place (nothing partial survives a full rollback either way).
//     Deadline rollbacks are counted distinctly (Result.DeadlineAborts,
//     sched.Stats.Deadlines) from the control's own conflict aborts. The
//     batch driver sets none.
//   - Per-commit samples (latency, wait time) are returned in each Outcome;
//     the batch driver collects them into its Result.
//   - Both drivers retire each transaction's record as its submission
//     resolves. The batch driver also turns on the recovery ledger's record,
//     whose committed execution is its Result.Exec; a service's session
//     records nothing.
//
// Lifecycle: NewSession → Submit (any number, concurrently) → Drain (stop
// admitting, wait for in-flight submissions to resolve) → Close (stop the
// engine, fire Observer.RunEnded). The session starts no goroutine: each
// submission runs on its caller's, and waits there on its own commit group's
// durability ack. Close without Drain
// abandons in-flight submissions: they return ErrSessionClosed promptly and
// no goroutine leaks, but their transactions' outcomes are unreported (a
// transaction whose commit group was already submitted may still be durable
// — the engine never un-commits).
//
// A store failure or injected crash fails the whole session: the first
// error is recorded, every blocked submission returns ErrSessionClosed
// wrapping it, and new submissions are rejected. Commits acknowledged
// before the failure remain durable.
//
// The session has no mutex of its own: its state, in-flight count and
// failure cause are guarded by the engine mutex, which the sections that
// admit and retire a submission hold anyway.
type Session struct {
	cfg Config
	e   *engine

	// Guarded by the engine mutex.
	state      int
	inflight   int
	idle       chan struct{} // closed when draining/closed and inflight hits 0
	idleClosed bool
	cause      error // first fatal engine error; session fails closed
	ended      bool  // Observer.RunEnded has fired
}

const (
	sessAccepting = iota
	sessDraining
	sessClosed
)

// ErrDraining rejects a Submit that arrives after Drain began: the session
// still resolves in-flight submissions but admits no new work.
var ErrDraining = errors.New("engine: session draining")

// ErrSessionClosed rejects Submits on (and unblocks submissions abandoned
// by) a closed session. When the session closed because the engine failed,
// the returned error wraps the cause.
var ErrSessionClosed = errors.New("engine: session closed")

// SubmitOpts bounds one submission.
type SubmitOpts struct {
	// Deadline, when non-zero, is the instant after which the transaction
	// is rolled back at its next breakpoint and reported DeadlineExceeded.
	// The Submit context's deadline, if earlier, takes precedence.
	Deadline time.Time
	// MaxRestarts overrides Config.MaxRestarts for this submission; 0 keeps
	// the session default.
	MaxRestarts int
	// Prepare, when non-nil, runs under the engine mutex after admission
	// checks and before the transaction first touches the control. It is
	// where the caller registers per-transaction metadata that the
	// breakpoint spec or an MLA control reads during the run (nest classes,
	// cut tables) — those reads happen under the same mutex, so mutation
	// here is race-free. It must not call back into the engine or block.
	Prepare func()
	// Cleanup, when non-nil, runs under the engine mutex when the
	// submission's record is retired, symmetric with Prepare.
	Cleanup func()
}

// Outcome reports how one submission resolved. Exactly one of Committed,
// DeadlineExceeded, Canceled, or GaveUp is set when the error is nil.
type Outcome struct {
	// Committed means the transaction's commit group is durable on the
	// session's store. It is the only outcome a server may acknowledge as
	// success.
	Committed bool
	// DeadlineExceeded means the submission's deadline expired and the
	// transaction was rolled back at a breakpoint (or refused a restart).
	DeadlineExceeded bool
	// Canceled means the submission's context was cancelled — the client
	// walked away — and the transaction was rolled back. A transaction
	// whose commit group was already submitted when the client left is
	// seen through and reported Committed instead: durability is never
	// abandoned mid-ack.
	Canceled bool
	// GaveUp means the restart budget was exhausted and the transaction
	// was parked (fully rolled back, holding nothing).
	GaveUp bool
	// Restarts counts the rollbacks this submission survived before
	// resolving.
	Restarts int
	// Latency is Submit-to-commit wall time (Committed outcomes): admission,
	// every attempt, backoff and wait, and the commit group's durability ack.
	Latency time.Duration
	// Waited is total time blocked on Wait decisions across attempts.
	Waited time.Duration
}

// SessionStats is a point-in-time snapshot of the session's counters, in
// the codebase-wide Snapshot() sense: a value copy that never aliases live
// state.
type SessionStats struct {
	Counts
	// Restarts equals Aborts: the served name serve_engine_restarts and
	// its readers predate the one count.
	Restarts int
	Inflight int
	Uptime   time.Duration
}

// NewSession starts a resident engine over the given control, spec, and
// store. It has no whole-run deadline (bounds are per submission); the
// Config fields keep their Run semantics. The caller owns the store and the
// control and must not share them with another run.
func NewSession(cfg Config, control sched.Control, spec breakpoint.Spec, store Store) *Session {
	e := &engine{
		waitGen: make(chan struct{}),
		stop:    make(chan struct{}),
		control: control,
		caps:    sched.CapabilitiesOf(control),
		spec:    spec,
		store:   store,
		faults:  cfg.Faults,
		obs:     cfg.Observer,
		txns:    make(map[model.TxnID]*etxn),
		led:     storage.NewLedger(),
		keep:    make(map[model.TxnID]int),
		undone:  make(map[model.TxnID]bool),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	e.start = time.Now()
	e.async, _ = store.(AsyncCommitter)
	e.cerr, _ = store.(CommitErrer)
	return &Session{cfg: cfg, e: e, idle: make(chan struct{})}
}

// Submit admits p into the running scheduler and blocks until it resolves;
// see Outcome. Safe for concurrent use. Transaction IDs must be unique
// among in-flight submissions (a duplicate is rejected). Under a closure
// control (sched.Preventer, sched.Detector) a committed transaction's ID
// stays taken until the control has sealed it — which happens once every
// transaction that preceded it in the closure has committed too, so at the
// latest when the session next goes quiescent — and is free for reuse
// after that; until then a reused ID would continue the old transaction.
//
// The context bounds the submission two ways: its deadline merges with
// opts.Deadline (earlier wins), and its cancellation withdraws the
// transaction at the next breakpoint — unless the commit group was already
// submitted for durability, in which case the commit is seen through and
// reported, because the record may already be on the device.
func (s *Session) Submit(ctx context.Context, p model.Program, opts SubmitOpts) (Outcome, error) {
	return s.submit(ctx, p, opts, 0)
}

// submit is Submit with the caller's base priority band: 0 for a service's
// submissions, where admission order alone decides age; the program index
// for a batch run, so earlier programs are older.
func (s *Session) submit(ctx context.Context, p model.Program, opts SubmitOpts, prio int64) (out Outcome, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := s.e
	// The latency's two monotonic clock reads bracket the submission's
	// sections: the deferred one runs after the mutex is let go.
	began := time.Since(e.start)
	defer func() {
		if out.Committed {
			out.Latency = time.Since(e.start) - began
		}
	}()
	id := p.ID()
	deadline := opts.Deadline
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	maxRestarts := opts.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = s.cfg.MaxRestarts
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	switch s.state {
	case sessAccepting:
	case sessDraining:
		return Outcome{}, ErrDraining
	default:
		return Outcome{}, s.causeLocked()
	}
	if _, dup := e.txns[id]; dup {
		return Outcome{}, fmt.Errorf("engine: session: duplicate in-flight transaction %q", id)
	}
	s.inflight++
	if opts.Prepare != nil {
		opts.Prepare()
	}
	t := e.getTxn(p, id)
	e.txns[id] = t
	e.turn()
	out, err = s.run(ctx, t, prio, deadline, maxRestarts)
	e.turn()
	s.retireLocked(t, opts.Cleanup)
	return out, err
}

// run drives t's attempts until the submission resolves. Under a
// Concurrent control the admission section that registered t also begins
// its first attempt, and when an attempt commits at once, the section of
// its last step also builds the Outcome and, back in submit, retires t;
// a serial control takes a turn between these phases. Called, and returns,
// with the mutex held; a restart takes its own section after the backoff.
func (s *Session) run(ctx context.Context, t *etxn, prio int64, deadline time.Time, maxRestarts int) (Outcome, error) {
	e := s.e
	for {
		if e.stopped {
			return Outcome{}, s.causeLocked()
		}
		// Restart boundary: a spent deadline or a gone client means we
		// refuse to begin another attempt. Nothing is live to abort — the
		// previous attempt was fully rolled back — so this is a refusal,
		// not a rollback, and is not counted in DeadlineAborts.
		if reason := expired(ctx, deadline); reason != killNone {
			return killedOutcome(reason, t.attempt), nil
		}
		if maxRestarts > 0 && t.attempt > maxRestarts {
			// Restart budget exhausted: park instead of livelocking. The
			// transaction was fully rolled back by its last abort, so it
			// holds no store records, no control state, and no dependents.
			// One exception: a concurrent control's Request can race past
			// that last rollback and grant the dead attempt a lock nobody
			// would ever release — ReleaseAll discards such residue so the
			// parked transaction provably blocks no one.
			t.gaveUp = true
			if e.caps.ReleaseAll != nil {
				e.caps.ReleaseAll(t.ID)
			}
			e.stats.GaveUp++
			if e.obs != nil {
				e.obs.TxnGaveUp(t.ID, t.attempt)
			}
			e.bump()
			return Outcome{GaveUp: true, Restarts: t.attempt}, nil
		}
		attempt := t.attempt
		e.beginAttemptLocked(t, prio)
		t.ap.cur = t.prog.Init()

		aborted, err := e.attempt(ctx, s.cfg, t, attempt, deadline)
		if err != nil {
			if errors.Is(err, errStopped) {
				return Outcome{}, s.causeLocked()
			}
			// A store failure or injected crash kills the engine, not just
			// this submission: poison the session so every other submission
			// unblocks with the cause.
			s.failLocked(err)
			return Outcome{}, fmt.Errorf("%w: %w", ErrSessionClosed, err)
		}
		if !aborted {
			e.turn()
			out, resolved, rerr := s.awaitCommit(ctx, t, attempt, deadline)
			if resolved || rerr != nil {
				return out, rerr
			}
			// Cascaded abort after finishing: fall through to restart.
		}
		if t.killed != killNone {
			return killedOutcome(t.killed, attempt), nil
		}
		e.sleepUnlocked(e.jitter(t.attempt))
	}
}

// awaitCommit blocks until t's commit group is durable (resolved, with the
// committed Outcome), the attempt is rolled back by a cascade (not resolved
// — the caller restarts), the deadline/client gives up on a group that has
// not been submitted yet (resolved, killed), or the session stops. Called,
// and returns, with the mutex held: under a synchronous store a group that
// formed at the finish is already committed, and nothing is waited for.
//
// A decided transaction of a pipelined store waits on the ack of the oldest
// group still queued — its own group's or an earlier one's, since acks close
// in submission order — and on waking finalizes every group whose ack has
// closed (finalizeAckedLocked), unless the session stopped meanwhile.
func (s *Session) awaitCommit(ctx context.Context, t *etxn, attempt int, deadline time.Time) (Outcome, bool, error) {
	e := s.e
	for {
		if err := e.asyncErr; err != nil && !t.Committed {
			// The durable medium failed while this group's ack was (or would
			// be) in flight: its durability is indeterminate, and the session
			// must not acknowledge it. Poison the session so every submission
			// resolves with the cause.
			werr := fmt.Errorf("engine: commit durability lost: %w", err)
			s.failLocked(werr)
			return Outcome{}, true, fmt.Errorf("%w: %w", ErrSessionClosed, werr)
		}
		if t.Committed {
			return Outcome{Committed: true, Restarts: attempt, Waited: t.waited}, true, nil
		}
		if t.attempt != attempt {
			return Outcome{}, false, nil
		}
		if t.Decided {
			// Durable-bound: the group was submitted and its record may
			// already be on the device, so the client's deadline no longer
			// applies — see the ack through and report the truth.
			ack := e.pending[0].ack
			e.mu.Unlock()
			select {
			case <-ack:
			case <-e.stop:
			}
			e.mu.Lock()
			if e.stopped {
				// An abandoned session's acks are discarded, also when the
				// stop raced the ack.
				return Outcome{}, false, s.causeLocked()
			}
			e.finalizeAckedLocked()
			continue
		}
		ch := e.waitReg()
		e.mu.Unlock()
		var tm *time.Timer
		var timerC <-chan time.Time
		if !deadline.IsZero() {
			tm = time.NewTimer(time.Until(deadline))
			timerC = tm.C
		}
		reason := killNone
		select {
		case <-ch:
		case <-e.stop:
		case <-timerC:
			reason = killDeadline
		case <-ctx.Done():
			reason = killCanceled
		}
		if tm != nil {
			tm.Stop()
		}
		e.mu.Lock()
		if e.stopped {
			return Outcome{}, false, s.causeLocked()
		}
		e.waitDereg(ch)
		if reason == killNone {
			e.turn()
			continue
		}
		if t.attempt == attempt && !t.Decided {
			// Finished but its group never formed (a dependency is still
			// running) and the submission's bounds ran out: withdraw.
			e.killLocked(t, reason)
			return killedOutcome(reason, attempt), true, nil
		}
		// Committing, committed, or already rolled back meanwhile: stop
		// watching the client and resolve on the engine's terms.
		deadline, ctx = time.Time{}, context.Background()
	}
}

func killedOutcome(reason int8, restarts int) Outcome {
	return Outcome{
		DeadlineExceeded: reason == killDeadline,
		Canceled:         reason == killCanceled,
		Restarts:         restarts,
	}
}

// retireLocked deletes and recycles the submission's transaction record,
// runs the caller's Cleanup hook and ends the submission's inflight count.
// A committed transaction left nothing to discard: Finished released its
// locks and the ledger dropped it with its group. Every other outcome —
// parked, killed, abandoned mid-attempt by Close, or given a racing
// concurrent-control grant after its last rollback — may leave lock residue
// or a ledger entry, which go here, so a session that keeps running other
// tenants inherits neither. Caller holds the mutex.
func (s *Session) retireLocked(t *etxn, cleanup func()) {
	e := s.e
	if !t.Committed {
		if e.caps.ReleaseAll != nil {
			e.caps.ReleaseAll(t.ID)
		}
		e.led.Remove(t.ID)
		// ReleaseAll may have just freed residue locks a racing grant gave
		// the dead attempt; anyone waiting on them must re-request now —
		// with lazy (waiter-counted) wakeups there is no later bump to
		// piggyback on in a quiet session.
		e.bump()
	}
	delete(e.txns, t.ID)
	e.putTxn(t)
	if cleanup != nil {
		cleanup()
	}
	s.inflight--
	if s.inflight == 0 && s.state != sessAccepting && !s.idleClosed {
		close(s.idle)
		s.idleClosed = true
	}
}

// causeLocked returns the error in-flight submissions resolve with once the
// session stopped. Caller holds the mutex.
func (s *Session) causeLocked() error {
	if s.cause != nil {
		return fmt.Errorf("%w: %w", ErrSessionClosed, s.cause)
	}
	return ErrSessionClosed
}

// fail poisons the session with the first fatal engine error and stops it.
func (s *Session) fail(err error) {
	s.e.mu.Lock()
	s.failLocked(err)
	s.e.mu.Unlock()
}

// failLocked is fail with the mutex held.
func (s *Session) failLocked(err error) {
	if s.cause == nil {
		s.cause = err
	}
	s.stopLocked()
}

// stopLocked closes the session and the stop channel every blocking point
// selects on, and sets the flag the sections read instead. Caller holds the
// mutex.
func (s *Session) stopLocked() {
	s.state = sessClosed
	if !s.e.stopped {
		s.e.stopped = true
		close(s.e.stop)
	}
}

// Drain stops admitting (new Submits return ErrDraining) and waits for
// in-flight submissions to resolve naturally — commit, give up, or hit
// their own deadlines; drain imposes no new ones. It returns nil once the
// session is idle, the context error if the caller's patience runs out
// first (the session stays draining; Close still works), or the session's
// failure cause if the engine died. Safe to call more than once.
func (s *Session) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e := s.e
	e.mu.Lock()
	if s.state == sessAccepting {
		s.state = sessDraining
	}
	if s.inflight == 0 && !s.idleClosed {
		close(s.idle)
		s.idleClosed = true
	}
	e.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-e.stop:
		e.mu.Lock()
		defer e.mu.Unlock()
		return s.causeLocked()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the engine (abandoning any submissions still in flight —
// Drain first for a clean shutdown) and fires Observer.RunEnded exactly
// once; no commit group is finalized after the stop, so RunEnded is the
// observer's last event. It returns the session's failure cause, if any.
// Safe to call more than once.
func (s *Session) Close() error {
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	s.stopLocked()
	if !s.ended && e.obs != nil {
		e.obs.RunEnded(e.stats.Committed, e.stats.GaveUp, time.Since(e.start))
	}
	s.ended = true
	return s.cause
}

// Stats snapshots the session's counters.
func (s *Session) Stats() SessionStats {
	e := s.e
	e.mu.Lock()
	st := SessionStats{Counts: e.stats, Restarts: e.stats.Aborts, Inflight: s.inflight, Uptime: time.Since(e.start)}
	e.mu.Unlock()
	return st
}

// ControlStats copies the control's counters under the engine mutex: the
// serial controls count in live state the engine writes under it, and
// ShardedTwoPhase folds every caller's reading into one shared struct.
func (s *Session) ControlStats() sched.Stats {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	return *s.e.control.Stats()
}
