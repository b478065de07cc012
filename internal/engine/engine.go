// Package engine executes transaction programs concurrently — one
// goroutine per transaction — under a pluggable concurrency control. It is
// the "real" counterpart of internal/sim's deterministic discrete-event
// simulator: the same Control interface, the same undo-log store, the same
// recovery ledger (storage.Ledger: dependency-closed cascading rollback and
// group commit), but actual parallel execution with wall-clock timing. Runs
// are not deterministic; correctness is established per run by validating
// the surviving execution (value chains) and, in tests, by the offline
// Theorem 2 checker.
//
// Concurrency discipline: store, bookkeeping and session state is guarded
// by one engine mutex, making each performed step atomic exactly as the
// model requires. Control calls are serialized under that same mutex UNLESS
// the control declares the sched.Concurrent capability: then Request — the
// contended part, where lock waits and wound decisions happen — runs
// outside the engine mutex, on the control's own per-entity (per-shard)
// critical sections. That is sound exactly because such a control's
// decision provably depends only on the requested entity's state and the
// requester's fixed priority (see sched.ShardedTwoPhase); the engine
// revalidates the attempt afterwards and discards stale grants through the
// Releaser capability. Such a submission holds the mutex from one Request
// to the next: admission begins the first attempt, each granted step's
// section runs on to the next Request, and the last step's section also
// finishes the transaction and, under a synchronous store, commits and
// retires it — k+1 acquisitions for a k-step transaction that never waits.
// On two vCPUs the number of acquisitions, not the work done under them,
// bounds throughput. Under a serial control each phase keeps a section of
// its own (see turn). Blocked transactions wait on a generation channel
// that is closed whenever any state changes; aborted transactions observe
// their bumped attempt counter, back off, and restart.
//
// Commit durability is synchronous by default (store.CommitGroup returns
// durable). A store that additionally implements AsyncCommitter (see
// PipelinedWALStore) gets group-commit pipelining: the engine submits the
// group the ledger decided and queues its ack, and each decided submission
// waits on the ack of the oldest queued group — its own or an earlier one.
// The first waiter to wake marks every queued group whose ack has closed
// committed, in submission order, under the engine mutex. Decided
// transactions are immune to abort and count as satisfied dependencies —
// safe because submission order bounds durability order. An injected crash
// is a medium failure like a degraded disk: the medium latches at its crash
// point, the pipeline latches what the medium returned, and the engine
// learns of it from a failed Perform or, after an ack, through CommitErrer.
//
// Lifecycle: there is one engine loop — Session.submit: admit, attempt,
// restart on rollback, park on an exhausted budget, await the commit group —
// and two drivers of it. A service keeps a Session open and calls Submit as
// requests arrive; Run/RunOnStore opens a session, submits every program
// from its own goroutine, joins them, closes the session, and assembles a
// Result. Both retire each transaction record as its submission resolves.
// The one difference is that a batch run turns on the recovery ledger's
// record (storage.Ledger.Record), whose committed execution becomes
// Result.Exec; a resident session records nothing. A batch run ends when
// all transactions resolve, the caller's context is cancelled or past its
// deadline, a worker fails, or an injected crash fires; every cause but the
// first fails the session, which closes the stop channel all blocking
// points (generation waits, backoff sleeps, commit waits) select on. A
// session starts no goroutine of its own; Run joins the workers it starts.
// No goroutine outlives Run or Close — the regression tests count them.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"mla/internal/breakpoint"
	"mla/internal/fault"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/storage"
)

const (
	// DefaultTimeout is the deadline a *batch* run (Run/RunOnStore, each
	// round of RunWithCrashes) gives a context that has none: long enough
	// that no experiment in internal/bench ever hits it on a healthy
	// machine, short enough that a livelocked or leaked run fails fast in
	// CI. Resident sessions (NewSession) have no whole-run deadline — they
	// are bounded per transaction by SubmitOpts.Deadline instead.
	DefaultTimeout = 30 * time.Second
	// backoffBase starts every restart and step-retry backoff; a failing
	// step is retried in place maxStepRetries times, then its transaction
	// aborts itself and restarts.
	backoffBase    = 100 * time.Microsecond
	maxStepRetries = 6
)

// Config bounds a run.
type Config struct {
	// StepDelay simulates per-step service time (slept outside the engine
	// lock after each performed step), forcing real overlap between
	// transactions. Zero means full speed.
	StepDelay time.Duration
	// Seed drives backoff jitter.
	Seed int64
	// Observer, when non-nil, receives the run's lifecycle events (see
	// Observer); hooks are serialized under the engine mutex.
	Observer Observer

	// Faults, when non-nil, injects deterministic failures: transient step
	// errors the engine retries with capped exponential backoff, and a
	// crash after a wall-clock budget. Crashes at configured append counts
	// fire in the WAL medium that holds the same injector
	// (wal.Medium.Faults; see internal/fault and RunWithCrashes).
	Faults *fault.Injector
	// MaxRestarts is the per-transaction restart budget: a transaction
	// rolled back more than this many times is parked and reported in
	// Result.GaveUp instead of livelocking the run. 0 means unlimited.
	MaxRestarts int
}

// Counts holds the engine's counters, each quantity once. Result,
// SessionStats and CrashResult embed it, and ObserveSnapshot folds an
// embedded struct's fields at its parent's prefix, so a fold of any of them
// names these fields alike. Every field changes under the engine mutex.
type Counts struct {
	Committed int
	// Aborts counts rollbacks; a rolled-back transaction restarts unless
	// the restart budget parks it. Cascades counts the rollbacks among them
	// that a victim's value dependency caused.
	Aborts   int
	Cascades int
	// Steps counts performed steps, rolled-back attempts' included; Cuts
	// counts the steps among them that ended a breakpoint unit.
	Steps int
	Cuts  int
	// GaveUp counts transactions parked after exhausting the restart
	// budget (Config.MaxRestarts): graceful degradation instead of
	// livelock. A run with GaveUp > 0 completes without error; the parked
	// transactions simply contribute no steps.
	GaveUp int
	// DeadlineAborts counts rollbacks performed because a transaction's
	// per-submission deadline expired or its client context was cancelled
	// (resident sessions only; batch runs have no per-txn deadlines). Each
	// is also counted in Aborts like any rollback — this is the
	// distinct cause sub-count, mirrored in sched.Stats.Deadlines for
	// controls with the DeadlineAborter capability.
	DeadlineAborts int
	// FaultsInjected counts transient step errors the fault injector
	// placed in this run (each was retried or escalated to a restart).
	FaultsInjected int
	// Waits counts the Wait decisions a transaction blocked on (the
	// Section 6 delay rule and lock waits alike); Waited is the wall-clock
	// time those waits took, summed over every attempt.
	Waits  int
	Waited time.Duration
}

// Result mirrors sim.Result for the concurrent engine.
type Result struct {
	Counts
	Exec  model.Execution
	Final map[model.EntityID]model.Value
	// CommitGroups holds each commit group's size in decision order. After
	// an injected crash it also lists the groups decided but never acked,
	// whose steps Exec holds too.
	CommitGroups []int
	Elapsed      time.Duration

	// Latencies holds one sample per committed transaction: wall-clock
	// time from its Submit to commit (Outcome.Latency).
	Latencies []time.Duration
	// WaitTimes holds one sample per committed transaction: total
	// wall-clock time it spent blocked on Wait decisions (lock/closure
	// waits), summed across attempts.
	WaitTimes []time.Duration
}

// LatencySummary returns order statistics, in microseconds, over the
// per-transaction commit latencies.
func (r *Result) LatencySummary() metrics.Summary { return summarizeDurations(r.Latencies) }

// WaitSummary returns order statistics, in microseconds, over the
// per-transaction lock/closure wait times.
func (r *Result) WaitSummary() metrics.Summary { return summarizeDurations(r.WaitTimes) }

func summarizeDurations(ds []time.Duration) metrics.Summary {
	h := metrics.NewHistogram()
	for _, d := range ds {
		h.Record(d.Microseconds())
	}
	return h.Summary()
}

type etxn struct {
	// Txn is the recovery-ledger entry: value dependencies, Finished, and
	// the commit marks. Decided without Committed is a transaction whose
	// group was submitted to an AsyncCommitter and awaits the durability
	// ack: immune to abort (its record may already be on the device) and a
	// satisfied dependency for later groups (submission order bounds
	// durability order); a waiter on the ack reports it Committed.
	storage.Txn
	prog    model.Program
	attempt int
	seq     int
	steps   []model.Step
	gaveUp  bool // parked after exhausting the restart budget
	prio    int64
	waited  time.Duration // total time blocked on Wait decisions

	// lastCut is the coarseness of the breakpoint after the most recently
	// performed step of the current attempt (0 while mid-unit or before the
	// first step). Deadline aborts fire only when it is non-zero or no step
	// has been performed yet — i.e. at unit boundaries.
	lastCut int
	// killed records why the engine itself aborted the current attempt:
	// killDeadline (the submission deadline expired) or killCanceled (the
	// client's context was cancelled). The session run loop reads it to
	// stop restarting and report the outcome.
	killed int8

	ap applier // the submitting goroutine's stepper; not guarded by mu
}

const (
	killNone int8 = iota
	killDeadline
	killCanceled
)

type engine struct {
	mu sync.Mutex
	// waitGen is the wait generation channel: a goroutine that must sleep
	// until engine state changes registers (waiters++) and captures waitGen
	// under the mutex, then sleeps on it. bump() closes and replaces the
	// channel ONLY when waiters > 0 — one close wakes every registered
	// sleeper at once (one wakeup per state change, not per waiter) and an
	// idle engine allocates no channels at all. genSeq increments on every
	// bump regardless, so the concurrent request path can detect that state
	// changed while its decision was being made outside the mutex (see
	// attempt) without anyone paying for a channel.
	waitGen chan struct{}
	waiters int
	genSeq  uint64
	stop    chan struct{} // closed exactly once when the run is abandoned or done
	stopped bool          // stop is closed; guarded by mu, set with the close

	control sched.Control
	caps    sched.Capabilities
	spec    breakpoint.Spec
	store   Store
	async   AsyncCommitter // non-nil when the store pipelines group commits
	cerr    CommitErrer    // non-nil when the store reports durable failures
	faults  *fault.Injector
	obs     Observer

	// asyncErr latches the first durable-medium failure reported through
	// cerr after an async-commit ack. Guarded by mu. Once set, no further
	// groups are submitted, waiters are woken (bump), and every commit
	// wait path surfaces the error instead of an ack.
	asyncErr error

	// pending queues the commit groups submitted to the AsyncCommitter and
	// not yet finalized, oldest first; pendingIDs holds their members back
	// to back in the same order. Both keep their storage across groups.
	// Guarded by mu.
	pending    []pendingGroup
	pendingIDs []model.TxnID

	txns map[model.TxnID]*etxn
	led  *storage.Ledger // records the run's execution in a batch run only
	// keep and undone are abortLocked's scratch, reused across calls (always
	// under mu): the victims as the ledger takes them (kept seq, always 0 —
	// the engine rolls back whole transactions) and the closed set as
	// Store.Abort takes it.
	keep   map[model.TxnID]int
	undone map[model.TxnID]bool
	// group is tryCommitLocked's commit-group buffer (always under mu): the
	// store and the observer read a group during the call, and copy what
	// they keep.
	group []model.TxnID
	// free recycles retired submissions' etxn records (with their ledger
	// entries' deps maps, their steps slices and their appliers) across the
	// session's lifetime; guarded by mu. Safe because a retired record is
	// unreachable: the transaction table and the ledger map by id, and the
	// submission goroutine retires its record only after its outcome
	// resolved.
	free []*etxn

	stats       Counts
	start       time.Time
	prioCounter int64
	rng         *rand.Rand
}

// pendingGroup is one submitted commit group awaiting its durability ack;
// its n members are the next n entries of engine.pendingIDs.
type pendingGroup struct {
	ack <-chan struct{}
	n   int
}

// applier carries an attempt's program state across store callbacks. The
// store's Perform takes a func(Value) (Value, string); building that func as
// a closure per step made every step pay two heap allocations (the closure
// and the escaping next-state variable). Each transaction record holds one
// applier, whose bound method value fn is made with the record and reused
// for every step of every attempt; only the submitting goroutine touches it.
type applier struct {
	cur, next model.ProgState
	fn        func(model.Value) (model.Value, string)
}

func (a *applier) apply(v model.Value) (model.Value, string) {
	w, label, ns := a.cur.Apply(v)
	a.next = ns
	return w, label
}

// getTxn returns a fresh transaction record for a submission, registered
// with the ledger, recycling a retired one's deps map, steps slice and
// applier when available. Caller holds the mutex.
func (e *engine) getTxn(p model.Program, id model.TxnID) *etxn {
	var t *etxn
	if n := len(e.free); n > 0 {
		t, e.free = e.free[n-1], e.free[:n-1]
	} else {
		t = &etxn{}
		t.ap.fn = t.ap.apply
	}
	*t = etxn{Txn: t.Txn, prog: p, steps: t.steps[:0], ap: applier{fn: t.ap.fn}}
	e.led.Add(&t.Txn, id)
	return t
}

// putTxn recycles a retired record. Caller holds the mutex and has removed
// the record from the transaction table.
func (e *engine) putTxn(t *etxn) {
	// Don't retain the program or its states across tenants.
	t.prog, t.ap.cur, t.ap.next = nil, nil, nil
	e.free = append(e.free, t)
}

// errStopped is attempt's signal that the session was stopped (closed, or
// failed by cancellation, timeout, a crash, or another submission's fatal
// error). It never escapes Submit.
var errStopped = errors.New("engine: run stopped")

// Run executes the programs concurrently to completion. Cancelling ctx, or
// passing its deadline (DefaultTimeout when it has none), stops every
// transaction goroutine deterministically; Run joins all of them before
// returning, so no goroutine it started outlives it.
func Run(ctx context.Context, cfg Config, programs []model.Program, control sched.Control, spec breakpoint.Spec, init map[model.EntityID]model.Value) (*Result, error) {
	res, err := RunOnStore(ctx, cfg, programs, control, spec, NewVolatileStore(init))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunOnStore is Run against a caller-provided backend. Unlike Run it can
// return BOTH a result and an error: when the fault injector crashes the
// system (errors.Is(err, fault.ErrCrash)) the returned Result carries the
// partial run — the steps of transactions that committed before the crash —
// which RunWithCrashes stitches across recovery rounds. Every other error
// returns a nil Result.
func RunOnStore(ctx context.Context, cfg Config, programs []model.Program, control sched.Control, spec breakpoint.Spec, store Store) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	s := NewSession(cfg, control, spec, store)
	s.e.led.Record()
	// Whatever ends the run early — the caller, the whole-run deadline, the
	// injected wall-clock crash, a worker's fatal error — fails the session:
	// the first cause is recorded and every submission unblocks.
	unwatch := context.AfterFunc(ctx, func() {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.fail(fmt.Errorf("engine: run timed out: %w", ctx.Err()))
		} else {
			s.fail(fmt.Errorf("engine: run cancelled: %w", ctx.Err()))
		}
	})
	if d, ok := cfg.Faults.ArmWallClock(); ok {
		tm := time.AfterFunc(d, func() { s.fail(fmt.Errorf("engine: wall-clock crash: %w", fault.ErrCrash)) })
		defer tm.Stop()
	}
	outs := make([]Outcome, len(programs))
	var wg sync.WaitGroup
	wg.Add(len(programs))
	for i, p := range programs {
		go func() {
			defer wg.Done()
			// No per-submission bounds, and the program index as the
			// priority band: earlier programs are older.
			out, err := s.submit(context.Background(), p, SubmitOpts{}, int64(i))
			if err != nil {
				s.fail(err)
			}
			outs[i] = out
		}()
	}
	wg.Wait()
	unwatch()
	// Close fires RunEnded — after every worker joined, so it is provably
	// the last per-run event an observer sees before the recovery loop's
	// Crashed/Recovered.
	runErr := s.Close()
	e := s.e
	if runErr == nil && e.cerr != nil {
		// A medium that failed inside a rollback fails no submission when
		// every victim then parks: the run still did not finish durably.
		runErr = e.cerr.CommitErr()
	}
	if runErr != nil && !errors.Is(runErr, fault.ErrCrash) {
		return nil, runErr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	res := Result{Counts: e.stats}
	// After a crash Exec also holds the groups submitted but never acked,
	// whose record may be durable: RunWithCrashes keeps the ones that are.
	res.Exec = e.led.Execution()
	res.CommitGroups = e.led.Groups()
	res.Final = e.store.Values()
	res.Elapsed = time.Since(e.start)
	for _, o := range outs {
		if o.Committed {
			res.Latencies = append(res.Latencies, o.Latency)
			res.WaitTimes = append(res.WaitTimes, o.Waited)
		}
	}
	if runErr != nil {
		// Injected crash: hand the partial run to the recovery loop.
		return &res, runErr
	}
	if res.Committed+res.GaveUp != len(programs) {
		return nil, fmt.Errorf("engine: only %d/%d committed (%d gave up)", res.Committed, len(programs), res.GaveUp)
	}
	return &res, nil
}

// bump advances the wait generation so blocked goroutines re-check. The
// channel is closed (and replaced) only when someone is actually registered
// on it: one close wakes every sleeper, and state changes on an engine with
// no sleepers cost a counter increment, not a channel allocation. Callers
// hold the mutex.
func (e *engine) bump() {
	e.genSeq++
	if e.waiters > 0 {
		close(e.waitGen)
		e.waitGen = make(chan struct{})
		e.waiters = 0
	}
}

// waitReg registers the caller as a sleeper on the current wait generation
// and returns the channel to sleep on. Caller holds the mutex and must call
// waitDereg(ch) under the mutex after waking (on any path where the engine
// keeps running) so a wake-by-timeout doesn't leave a phantom registration.
func (e *engine) waitReg() chan struct{} {
	e.waiters++
	return e.waitGen
}

// waitDereg cancels a registration made by waitReg, unless a bump already
// consumed it (the generation changed). Caller holds the mutex.
func (e *engine) waitDereg(ch chan struct{}) {
	if ch == e.waitGen {
		e.waiters--
	}
}

// sleepUnlocked lets the mutex go, blocks for d or until the run stops, and
// takes the mutex again; the caller, who holds the mutex, checks stopped.
func (e *engine) sleepUnlocked(d time.Duration) {
	e.mu.Unlock()
	defer e.mu.Lock()
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-e.stop:
	}
}

// turn ends the caller's section and starts another under a serial
// control, which decides under the mutex: its submissions take one section
// per phase — admission, begin, each Request, the finish, each commit
// check, retire — so that the steps of other submissions interleave between
// them. A Concurrent control's submissions fold them (k+1 sections for k
// steps) and let the mutex go around each Request instead. Caller holds the
// mutex.
func (e *engine) turn() {
	if !e.caps.Concurrent {
		e.mu.Unlock()
		e.mu.Lock()
	}
}

// jitter returns a restart or step-retry backoff. Caller holds the mutex,
// which guards rng.
func (e *engine) jitter(attempt int) time.Duration {
	if attempt > 8 {
		attempt = 8
	}
	window := backoffBase << uint(attempt)
	return backoffBase + time.Duration(e.rng.Int63n(int64(window)+1))
}

// beginAttemptLocked resets t for a fresh attempt and registers it with the
// control. prio is the caller's base priority band (the program index for
// batch runs, 0 for session submissions, where admission order alone
// decides age). Caller holds the mutex.
func (e *engine) beginAttemptLocked(t *etxn, prio int64) {
	t.seq = 0
	t.steps = t.steps[:0]
	t.lastCut = 0
	if t.prio == 0 {
		e.prioCounter++
		t.prio = prio*1024 + e.prioCounter
	} else if e.caps.NewPriority != nil {
		// Timestamp ordering needs a fresh, larger timestamp on restart.
		e.prioCounter++
		t.prio = e.caps.NewPriority(t.ID, t.prio, 1_000_000_000+e.prioCounter)
	}
	e.control.Begin(t.ID, t.prio)
}

// attempt runs one attempt of the transaction; it returns aborted=true when
// the attempt was rolled back (by itself, a cascade, or its deadline), and
// errStopped when the run was abandoned. Non-errStopped errors (an injected
// crash, a store failure) abandon the whole run. It is called, and returns,
// with the mutex held, and lets it go only around a Concurrent control's
// Request, a wait, a sleep and a serial control's turns: under a Concurrent
// control the section of the last step also finishes the attempt and tries
// its commit.
//
// ctx and deadline carry a resident submission's bounds (Background and
// zero for batch runs): when the deadline passes or ctx is cancelled, the
// attempt is rolled back at the next unit boundary — never mid-unit while
// runnable, so granted steps always run to the next breakpoint — or
// immediately when blocked on a Wait decision, where the whole attempt rolls
// back and nothing partial survives either way. Only the blocked case reads
// ctx.Done(): a request context makes its done channel on first use, so a
// submission that never blocks never makes one.
func (e *engine) attempt(ctx context.Context, cfg Config, t *etxn, attempt int, deadline time.Time) (bool, error) {
	id, ap := t.ID, &t.ap
	performed := 0 // this attempt's step count (local mirror of t.seq)
	retries := 0   // in-place retries of the current step after transient faults
	x, more := ap.cur.Next()
	// Under a serial control the finish and each Request take a section of
	// their own (see turn): requested says that this section, or the one
	// that began the attempt, is spent.
	requested := true
	for {
		if requested {
			e.turn()
			requested = false
		}
		if e.stopped {
			return false, errStopped
		}
		if t.attempt != attempt {
			return true, nil // rolled back meanwhile
		}
		if !more {
			e.led.Finish(&t.Txn)
			e.control.Finished(id)
			e.tryCommitLocked()
			e.bump()
			return false, nil
		}
		// Deadline/cancel check, at step granularity but acted on only at a
		// unit boundary (nothing performed yet, or the previous step was
		// followed by a breakpoint): a runnable transaction is never cut
		// down mid-unit — it finishes the unit it started, then aborts at
		// the breakpoint, which is exactly where MLA lets the schedule
		// change its mind about a transaction cheaply.
		if reason := expired(ctx, deadline); reason != killNone && (performed == 0 || t.lastCut > 0) {
			e.killLocked(t, reason)
			return true, nil
		}
		// Transient fault injection: the step request fails before it
		// reaches the control or the store (a lost message, a timed-out
		// I/O). The engine retries in place with capped exponential
		// backoff; a step that keeps failing escalates to a self-abort and
		// restart, which consumes one unit of the restart budget.
		if e.faults != nil {
			if ferr := e.faults.StepError(id, performed+1, attempt, retries); ferr != nil {
				e.stats.FaultsInjected++
				if e.obs != nil {
					e.obs.FaultInjected(id, performed+1, retries)
				}
				retries++
				if retries > maxStepRetries {
					e.abortLocked([]model.TxnID{id})
					e.bump()
					return true, nil
				}
				e.sleepUnlocked(e.jitter(retries))
				continue
			}
		}
		var d sched.Decision
		if e.caps.Concurrent {
			// The control's decision depends only on the requested entity's
			// state (its lock shard) and the requester's fixed priority, so
			// it needs none of the engine's global state: run it outside the
			// engine mutex, where contending workers serialize only on the
			// entity's shard. Revalidate the attempt afterwards — a rollback
			// can race with the request, in which case any lock the dead
			// attempt just acquired is residue to discard.
			//
			// gen0 is the wait generation SEQUENCE as of this section — the
			// last one this attempt held: begin, the previous step, a wake-up
			// or a re-request. A Wait decision made outside the mutex can be
			// stale by the time we'd block — the holder may release (and
			// bump) in the gap — and a sleeper who missed that bump would
			// sleep on a wakeup that never comes. If genSeq moved while the
			// decision was out, the decision is re-made instead of slept on
			// (seqlock style); if it did not move, no release happened since
			// the decision, so registering now (under the same mutex genSeq
			// is read under) cannot miss one. An older gen0 can only cause a
			// re-request, never a lost wakeup.
			seq, gen0 := t.seq+1, e.genSeq
			e.mu.Unlock()
			d = e.control.Request(id, seq, x)
			e.mu.Lock()
			if t.attempt != attempt {
				if e.caps.ReleaseAll != nil {
					e.caps.ReleaseAll(id)
				}
				// As in retire: the residue just freed may have a waiter.
				e.bump()
				return true, nil
			}
			if d.Kind == sched.Wait && e.genSeq != gen0 {
				continue
			}
		} else {
			d = e.control.Request(id, t.seq+1, x)
			requested = true
		}
		switch d.Kind {
		case sched.Grant:
			step, perr := e.store.Perform(id, t.seq+1, x, ap.fn)
			if perr != nil {
				// An injected crash (or a fatal store error): the volatile
				// system is dead. Abandon the run; RunWithCrashes recovers
				// from the durable medium.
				return false, perr
			}
			e.led.Observe(&t.Txn, step)
			t.seq++
			performed++
			retries = 0
			t.steps = append(t.steps, step)
			nx, nmore := ap.next.Next()
			cut := 0
			if nmore && e.spec != nil {
				cut = e.spec.CutAfter(id, t.steps)
			}
			t.lastCut = cut
			e.stats.Steps++
			if cut > 0 {
				e.stats.Cuts++
			}
			e.control.Performed(id, t.seq, x, cut)
			if e.obs != nil {
				e.obs.StepPerformed(id, t.seq, x, attempt, cut)
			}
			ap.cur = ap.next
			x, more = nx, nmore
			if cut > 0 || !e.caps.QuiescentSteps {
				// A performed step can unblock someone only under a control
				// whose decisions observe step progress (closure previews,
				// unit-boundary releases). Under a strict control that only
				// releases at Finished/Aborted (QuiescentSteps), waking every
				// sleeper per step is pure thundering herd — skip it.
				e.bump()
			}
			if cfg.StepDelay > 0 {
				e.sleepUnlocked(cfg.StepDelay)
				requested = false
			}
		case sched.Wait:
			e.stats.Waits++
			if e.obs != nil {
				e.obs.WaitBegin(id, x)
			}
			ch := e.waitReg()
			e.mu.Unlock()
			t0 := time.Now()
			// A resident submission's deadline (or client cancellation) must
			// be able to interrupt the wait: a blocked transaction's current
			// unit is incomplete either way, so the whole attempt rolls back
			// and nothing partial is exposed — the one place a deadline may
			// fire "mid-unit".
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
			waited := time.Since(t0)
			e.mu.Lock()
			if e.stopped {
				return false, errStopped
			}
			e.waitDereg(ch)
			t.waited += waited
			e.stats.Waited += waited
			if e.obs != nil {
				e.obs.WaitEnd(id, x, waited)
			}
			if reason != killNone {
				if t.attempt == attempt {
					e.killLocked(t, reason)
				}
				return true, nil
			}
		case sched.Abort:
			e.abortLocked(d.Victims)
			e.bump()
		}
	}
}

// expired reports why a submission should stop: killCanceled when the
// client's context is done, killDeadline when the deadline has passed,
// killNone otherwise. Batch runs pass Background and a zero deadline and
// take the two cheap branches — no clock read.
func expired(ctx context.Context, deadline time.Time) int8 {
	if ctx.Err() != nil {
		return killCanceled
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return killDeadline
	}
	return killNone
}

// killLocked rolls back t's current attempt because its deadline expired or
// its client walked away: the cause is recorded on the transaction (so the
// session run loop stops restarting it), counted distinctly in the result
// and — via the DeadlineAborter capability — in the control's stats, and
// then the rollback flows through the normal dependency-closed abort path.
// Caller holds the mutex and has verified the attempt is current.
func (e *engine) killLocked(t *etxn, reason int8) {
	t.killed = reason
	e.stats.DeadlineAborts++
	if e.caps.DeadlineAborted != nil {
		e.caps.DeadlineAborted(t.ID)
	}
	e.abortLocked([]model.TxnID{t.ID})
	e.bump()
}

// abortLocked rolls back the victims plus their value dependents — the
// ledger's closure with every victim kept at 0, since the engine's unit of
// recovery is the whole transaction. Caller holds the mutex. Only the sorted
// id slice is allocated fresh, because the control and observer receive it.
func (e *engine) abortLocked(victims []model.TxnID) {
	clear(e.keep)
	for _, v := range victims {
		// Decided transactions are immune: their group is submitted and its
		// record may already be durable. (Unreachable in practice — a decided
		// transaction is finished, holds no locks, and its deps are all
		// decided — but the guard keeps the invariant local instead of spread
		// over that argument.)
		if t := e.txns[v]; t != nil && !t.Decided && !t.gaveUp {
			e.keep[v] = 0
		}
	}
	if len(e.keep) == 0 {
		return
	}
	named := len(e.keep)
	ids := e.led.Close(e.keep)
	e.stats.Cascades += len(ids) - named
	clear(e.undone)
	for _, id := range ids {
		e.undone[id] = true
	}
	if err := e.store.Abort(e.undone); err != nil {
		panic(err) // the ledger's closure must make this unreachable
	}
	for _, id := range ids {
		e.txns[id].attempt++
		e.stats.Aborts++
		if e.obs != nil {
			e.obs.TxnAborted(id, !slices.Contains(victims, id))
		}
	}
	e.control.Aborted(ids)
	e.led.RolledBack(e.keep)
}

// tryCommitLocked commits the group the ledger decides, if one forms: the
// largest set of finished transactions whose value dependencies stay within
// the set or the decided. Caller holds the mutex.
func (e *engine) tryCommitLocked() {
	// A failed durable medium (degraded, or crashed at an injected crash
	// point): submitting more groups into a pipeline that can no longer
	// flush would only queue lies.
	if e.asyncErr != nil {
		return
	}
	// A decided dependency is as good as committed: it was submitted to the
	// pipeline before this group will be, and the pipeline makes groups
	// durable in submission order (a flush drains every pending group into
	// one record), so our record can never become durable ahead of the value
	// we read. The probe runs after every finish into the engine's one group
	// buffer, so it allocates nothing once the buffer has grown.
	e.group = e.led.Group(e.group)
	ids := e.group
	if len(ids) == 0 {
		return
	}
	if e.async != nil {
		// Pipelined path: submit the group and queue its ack; the members'
		// submissions report it committed once the store acknowledges
		// durability (finalizeAckedLocked). Until then members are decided —
		// immune to abort, valid as dependencies — but not yet counted in
		// stats or shown to the observer. The queue copies the ids, because
		// the group buffer moves on.
		e.pending = append(e.pending, pendingGroup{ack: e.async.SubmitGroup(ids), n: len(ids)})
		e.pendingIDs = append(e.pendingIDs, ids...)
		return
	}
	// One store call for the whole group: members may have observed each
	// other's values, so a durable backend must commit them atomically.
	e.store.CommitGroup(ids)
	e.finalizeGroupLocked(ids)
}

// finalizeAckedLocked reports committed, in submission order, every queued
// group whose ack has closed, stopping at the first still in flight. The
// store's durable-failure latch is read after the acks were seen closed — a
// pipeline latches a failed flush before it closes that flush's ack — and a
// failure latches asyncErr and finalizes nothing: the ack of a degraded
// flush is a wake-up, not a durability promise, and once one flush failed
// no later ack can be trusted either. Caller holds the mutex and has checked
// that the session has not stopped: an abandoned session's acks are
// discarded, so Observer.RunEnded stays the last event.
func (e *engine) finalizeAckedLocked() {
	k := 0
	for k < len(e.pending) && closed(e.pending[k].ack) {
		k++
	}
	if k == 0 || e.asyncErr != nil {
		return
	}
	if e.cerr != nil {
		if err := e.cerr.CommitErr(); err != nil {
			e.asyncErr = err
			e.bump()
			return
		}
	}
	off := 0
	for _, g := range e.pending[:k] {
		e.finalizeGroupLocked(e.pendingIDs[off : off+g.n])
		off += g.n
	}
	n := copy(e.pending, e.pending[k:])
	clear(e.pending[n:])
	e.pending = e.pending[:n]
	e.pendingIDs = e.pendingIDs[:copy(e.pendingIDs, e.pendingIDs[off:])]
	e.bump()
}

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// finalizeGroupLocked records a now-durable commit group: the ledger
// releases the members' dependents, then stats, retirement hooks and
// observer. (Latency and wait samples travel in each submission's Outcome.)
// Caller holds the mutex.
func (e *engine) finalizeGroupLocked(ids []model.TxnID) {
	e.led.Committed(ids)
	for _, id := range ids {
		e.stats.Committed++
		if e.caps.Retired != nil {
			e.caps.Retired(id)
		}
	}
	if e.obs != nil {
		e.obs.CommitGroup(ids)
	}
}
