// Package sim is a deterministic discrete-event simulator of the
// "migrating transaction" model the paper adopts from [RSL] (Section 6):
// entities reside at processors of a network; a transaction originates at a
// home processor and migrates from entity to entity, carrying its state in
// (p,t,s) messages; the total order of the system's execution is the order
// in which steps are actually performed, i.e. real clock time.
//
// The simulator drives a pluggable concurrency control (internal/sched) over
// the undo-log store and the recovery ledger (internal/storage): the ledger
// closes each abort set under value dependencies, forms the commit groups and
// records the surviving execution for offline verification against Theorem 2
// (internal/coherent); the simulator chooses victims' keep points and
// performs the cascading restarts.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/sched"
	"mla/internal/storage"
	"mla/internal/telemetry"
)

// The simulated system's fixed shape and timing, in abstract time units.
const (
	Processors         = 4  // entities and transactions are hashed across them
	serviceTime  int64 = 10 // time to perform one step
	latency      int64 = 5  // one network hop (message between processors)
	restartDelay int64 = 25 // backoff before an aborted transaction restarts
)

// Config sets a run's arrivals, horizon and recovery. All durations are in
// abstract time units.
type Config struct {
	InterArrival int64 // gap between successive transaction arrivals
	MaxTime      int64 // safety horizon; 0 means 100M units

	// stopAt stops the run cleanly at this time with work incomplete (0 =
	// run to completion); RunWithCrashes sets it for each crash round.
	stopAt int64

	// PartialRecovery shrinks the unit of recovery (Section 1 of the paper:
	// "one would probably not want to roll back very long transactions"):
	// when a control that supports it names a victim, the victim is rolled
	// back only to its last class-wide (coarseness-2) breakpoint and
	// resumes from there, instead of restarting from scratch. Transactions
	// that observed values written by the undone suffix still cascade to
	// full aborts. Repeated partial rollbacks without progress escalate to
	// a full abort, so deadlocks whose cause lies in the kept prefix are
	// still resolved.
	PartialRecovery bool

	// Telemetry, when non-nil, records the run into the shared sink: one
	// txn span per committed transaction (begun to commit, on its home
	// processor's lane), instants for commit groups and aborts, and the
	// sim.* / control.* counters folded in at the end. Simulated time maps
	// one unit to one microsecond in the exported trace (telemetry.SimUnit).
	// The simulator is single-threaded, so one lock-free Local suffices.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig returns a small, contended configuration used by the
// examples and tests.
func DefaultConfig() Config {
	return Config{InterArrival: 3}
}

// Stats aggregates what happened during a run.
type Stats struct {
	Committed   int   // transactions committed
	Steps       int64 // steps performed, including later-undone ones
	Aborts      int   // rollbacks, including cascades
	Cascades    int   // rollbacks forced by value dependencies
	StallBreaks int   // deadlock resolutions by aborting the youngest waiter
	Messages    int64 // network messages sent
	Restarts    int   // transaction attempts beyond the first

	// Unit-of-recovery accounting (Section 1 of the paper distinguishes the
	// unit of recovery from the unit of atomicity): StepsUndone counts all
	// rolled-back steps; StepsUndoneSavable counts those at or before the
	// victim's last class-wide (coarseness-2) breakpoint, which a
	// segment-granular recovery unit could have preserved.
	StepsUndone        int64
	StepsUndoneSavable int64
	PartialRollbacks   int // suffix-only rollbacks (PartialRecovery)
}

// Result of a run.
type Result struct {
	Exec      model.Execution // surviving (committed) steps in performance order
	Stats     Stats
	Control   *sched.Stats
	Time      int64   // completion time of the last commit
	Latencies []int64 // per committed transaction: begin-to-commit time
	Final     map[model.EntityID]model.Value

	// CommitGroups records the size of each atomic commit group: value
	// dependencies can cycle between finished transactions (the paper's
	// Section 6 commitment-chaining observation), and such groups must
	// commit together. Serializable controls always produce groups of 1.
	CommitGroups []int
}

// Throughput returns committed transactions per 1000 time units.
func (r *Result) Throughput() float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.Stats.Committed) * 1000 / float64(r.Time)
}

// LatencyPercentile returns the p-th percentile (0..100) of commit latency.
func (r *Result) LatencyPercentile(p float64) int64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	ls := append([]int64(nil), r.Latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	i := int(p / 100 * float64(len(ls)-1))
	return ls[i]
}

type evKind int

const (
	evArrive evKind = iota // the transaction's next step request reaches the entity's owner
	evDone                 // the current step's service time elapsed
	evBegin                // transaction (re)starts
	evTick                 // control wake-up (sched.Waker): deliver messages, run protocol timers
)

type event struct {
	time    int64
	seq     int64 // FIFO tiebreak for determinism
	kind    evKind
	txn     int // index into txns
	attempt int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type txnStatus int

const (
	stIdle  txnStatus = iota // not yet begun or between abort and restart
	stReady                  // request being decided / in flight
	stWaiting
	stRunning // step in service
)

type txn struct {
	storage.Txn   // recovery-ledger entry: dependencies, Finished and Committed marks
	prog          model.Program
	cur           model.ProgState
	seq           int
	prio          int64
	begun         int64 // time of first Begin (for latency)
	attempt       int
	steps         []model.Step
	loc           int // current processor
	home          int
	status        txnStatus
	bound2        int               // last class-wide (coarseness-2) breakpoint position
	states        []model.ProgState // states[i] = program state before step i+1 (for resume)
	lastKeep      int               // keep point of the previous partial rollback
	partialStreak int               // consecutive partial rollbacks at the same keep point
}

// Runner executes one simulation.
type Runner struct {
	cfg     Config
	control sched.Control
	caps    sched.Capabilities // the control's optional hooks, probed once
	spec    breakpoint.Spec
	store   Store
	led     *storage.Ledger
	init    map[model.EntityID]model.Value

	txns []*txn
	byID map[model.TxnID]int

	queue   eventHeap
	evSeq   int64
	now     int64
	waiters map[int]bool

	stats      Stats
	lastCommit int64
	latencies  []int64

	offering     bool // reentrancy guard for offerWaiters
	offerPending bool

	wakeAt int64 // earliest queued evTick, 0 = none (sched.Waker controls)

	stallCommits  int // commit count at the last stall break
	stallEscalate int // stall breaks since the last commit

	// Telemetry recording (nil when Config.Telemetry is unset — every hook
	// is one nil check). The simulator is single-threaded, so one lock-free
	// Local carries the whole run; the run span is closed in result().
	tele    *telemetry.Local
	telePID int64
	runSpan telemetry.SpanID
}

// New prepares a run of the given programs under the control. spec provides
// the breakpoint coarseness reported to the control after each step; it may
// be nil for controls that ignore breakpoints (the baselines), in which
// case 0 is reported.
func New(cfg Config, programs []model.Program, control sched.Control, spec breakpoint.Spec, init map[model.EntityID]model.Value) *Runner {
	if cfg.MaxTime == 0 {
		cfg.MaxTime = 100_000_000
	}
	r := &Runner{
		cfg:     cfg,
		control: control,
		caps:    sched.CapabilitiesOf(control),
		spec:    spec,
		store:   storage.New(init),
		led:     storage.NewLedger(),
		init:    init,
		byID:    make(map[model.TxnID]int),
		waiters: make(map[int]bool),
	}
	r.led.Record()
	for i, p := range programs {
		t := &txn{prog: p, home: hashString(string(p.ID())) % Processors}
		t.loc = t.home
		r.led.Add(&t.Txn, p.ID())
		r.txns = append(r.txns, t)
		r.byID[p.ID()] = i
		r.push(int64(i)*cfg.InterArrival, evBegin, i, 0)
	}
	if tel := cfg.Telemetry; tel != nil {
		r.tele = tel.Trace.Local()
		r.telePID = tel.Trace.NextPID()
		tel.Trace.NameProcess(r.telePID, "sim "+control.Name())
		tel.Trace.NameLane(r.telePID, 0, "run")
		for p := 0; p < Processors; p++ {
			tel.Trace.NameLane(r.telePID, int64(p)+1, fmt.Sprintf("proc %d", p))
		}
		r.runSpan = r.tele.BeginAt(0, "run", "sim run", r.telePID, 0, 0,
			"control", control.Name(), "txns", fmt.Sprint(len(programs)))
	}
	return r
}

func hashString(s string) int {
	h := 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ int(s[i])) * 16777619 & 0x7fffffff
	}
	return h
}

func (r *Runner) owner(x model.EntityID) int {
	return hashString(string(x)) % Processors
}

// OwnerFunc exposes the simulator's entity-placement function so
// distributed controls can agree with it.
func OwnerFunc(processors int) func(model.EntityID) int {
	if processors <= 0 {
		processors = 1
	}
	return func(x model.EntityID) int { return hashString(string(x)) % processors }
}

func (r *Runner) push(time int64, kind evKind, ti, attempt int) {
	r.evSeq++
	heap.Push(&r.queue, event{time: time, seq: r.evSeq, kind: kind, txn: ti, attempt: attempt})
}

// Run executes the simulation to completion and returns the result. It
// returns an error if the safety horizon is exceeded or an internal
// invariant breaks (e.g. an abort set that was not dependency-closed).
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is polled
// between events (every ctxCheckEvery events, so a hot loop costs one atomic
// load per batch) and a cancelled run returns ctx.Err() wrapped with the
// simulated-time position. The simulator is single-goroutine, so unlike
// engine.Run there is nothing to join — returning is already leak-free.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	const ctxCheckEvery = 256
	events := 0
	for {
		if events%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: cancelled at t=%d with %d transactions incomplete: %w",
					r.now, r.incomplete(), err)
			}
		}
		events++
		if r.incomplete() == 0 {
			break
		}
		if len(r.queue) == 0 {
			if !r.breakStall() {
				return nil, fmt.Errorf("sim: no events and no waiters but %d transactions incomplete", r.incomplete())
			}
			continue
		}
		ev := heap.Pop(&r.queue).(event)
		if r.cfg.stopAt > 0 && ev.time > r.cfg.stopAt {
			break // crash point: volatile state is abandoned
		}
		if ev.time > r.cfg.MaxTime {
			return nil, fmt.Errorf("sim: exceeded MaxTime=%d with %d transactions incomplete", r.cfg.MaxTime, r.incomplete())
		}
		r.now = ev.time
		if r.caps.Tick != nil {
			r.caps.Tick(r.now)
			// Controls with asynchronous detection (probe-based deadlock
			// chasing, failure-detector escalation) surface their victims
			// here; the rollback runs through the normal dependency-closed
			// abort path, so accounting and cascades are identical to
			// decision-time aborts.
			if r.caps.TakeVictims != nil {
				if victims := r.caps.TakeVictims(); len(victims) > 0 {
					r.abort(victims, false)
				}
			}
		}
		if ev.kind == evTick {
			if ev.time >= r.wakeAt {
				r.wakeAt = 0
			}
			// Message deliveries and timer escalations can unblock waiters
			// without any workload event, so re-offer here.
			r.offerWaiters()
			r.scheduleWake()
			continue
		}
		t := r.txns[ev.txn]
		if ev.attempt != t.attempt {
			r.scheduleWake()
			continue // stale event from a rolled-back attempt
		}
		switch ev.kind {
		case evBegin:
			t.status = stReady
			if t.begun == 0 {
				t.begun = r.now
			}
			fresh := r.now*1024 + int64(ev.txn) + 1
			if t.prio == 0 {
				t.prio = fresh
			} else if r.caps.NewPriority != nil {
				// Controls like timestamp ordering need a fresh timestamp on
				// restart; wound-wait controls keep the original so aged
				// transactions eventually win.
				t.prio = r.caps.NewPriority(t.ID, t.prio, fresh)
			}
			t.cur = t.prog.Init()
			t.seq = 0
			t.bound2 = 0
			t.steps = nil
			t.states = nil
			t.lastKeep = -1
			t.loc = t.home
			r.control.Begin(t.ID, t.prio)
			r.decide(ev.txn)
		case evArrive:
			r.decide(ev.txn)
		case evDone:
			r.stepDone(ev.txn)
		}
		r.scheduleWake()
	}
	return r.result(), nil
}

// scheduleWake queues a synthetic evTick at the control's next requested
// wake-up instant (sched.Waker): pending message deliveries, heartbeat and
// retransmission timers. Only the earliest wake is kept armed; stale queued
// ticks cost one idempotent Tick call and nothing else.
func (r *Runner) scheduleWake() {
	if r.caps.NextWake == nil {
		return
	}
	at := r.caps.NextWake(r.now)
	if at <= 0 {
		return
	}
	if at <= r.now {
		at = r.now + 1
	}
	if r.wakeAt > r.now && r.wakeAt <= at {
		return // an earlier-or-equal wake is already queued
	}
	r.wakeAt = at
	r.push(at, evTick, -1, 0)
}

func (r *Runner) incomplete() int { return len(r.txns) - r.stats.Committed }

// decide asks the control about the transaction's next step and acts on the
// decision.
func (r *Runner) decide(ti int) {
	t := r.txns[ti]
	for retries := 0; ; retries++ {
		x, ok := t.cur.Next()
		if !ok {
			r.finish(ti)
			return
		}
		d := r.control.Request(t.ID, t.seq+1, x)
		switch d.Kind {
		case sched.Grant:
			r.perform(ti, x)
			return
		case sched.Wait:
			t.status = stWaiting
			r.waiters[ti] = true
			return
		case sched.Abort:
			r.abort(d.Victims, false)
			if r.txns[ti].attempt != t.attempt || t.status == stIdle {
				return // we were among the victims
			}
			if retries >= 8 {
				// The control keeps demanding aborts; back off.
				t.status = stWaiting
				r.waiters[ti] = true
				return
			}
		}
	}
}

// perform executes the granted step atomically at the current instant.
func (r *Runner) perform(ti int, x model.EntityID) {
	t := r.txns[ti]
	// Migration: move to the entity's owner if not already there.
	if own := r.owner(x); own != t.loc {
		t.loc = own
		r.stats.Messages++
	}
	t.states = append(t.states, t.cur)
	var next model.ProgState
	step := r.store.Perform(t.ID, t.seq+1, x, func(v model.Value) (model.Value, string) {
		w, label, ns := t.cur.Apply(v)
		next = ns
		return w, label
	})
	r.led.Observe(&t.Txn, step)
	t.seq++
	t.cur = next
	t.steps = append(t.steps, step)
	r.stats.Steps++

	cut := 0
	if _, more := next.Next(); more && r.spec != nil {
		cut = r.spec.CutAfter(t.ID, t.steps)
	}
	if cut == 2 {
		t.bound2 = t.seq
	}
	if r.tele != nil {
		// The step instant puts every performed step on the trace's timeline.
		r.tele.RecordAt(telemetry.SimUnit(r.now), 0, "step",
			fmt.Sprintf("%s[%d]", t.ID, t.seq), r.telePID, int64(t.home)+1, r.runSpan,
			"txn", string(t.ID), "seq", fmt.Sprint(t.seq),
			"entity", string(x), "cut", fmt.Sprint(cut))
	}
	r.control.Performed(t.ID, t.seq, x, cut)

	t.status = stRunning
	r.push(r.now+serviceTime, evDone, ti, t.attempt)
	r.offerWaiters()
}

func (r *Runner) stepDone(ti int) {
	t := r.txns[ti]
	t.status = stReady
	if _, more := t.cur.Next(); more {
		r.push(r.now+latency, evArrive, ti, t.attempt)
	} else {
		r.finish(ti)
	}
	r.offerWaiters()
}

func (r *Runner) finish(ti int) {
	t := r.txns[ti]
	if t.Finished {
		return
	}
	r.led.Finish(&t.Txn)
	r.stats.Messages++ // result returns to the originator
	r.control.Finished(t.ID)
	r.tryCommit()
	r.offerWaiters()
}

// tryCommit commits the group the ledger decides, if one forms: the largest
// set of finished transactions whose value dependencies lie within the set
// or the committed.
func (r *Runner) tryCommit() {
	ids := r.led.Group(nil)
	if len(ids) == 0 {
		return
	}
	// Group members may have observed each other's values (commitment
	// chaining, paper Section 6), so a durable store must make the whole
	// group durable atomically — one log record, not one per member —
	// or a torn log tail could keep half a cycle.
	r.store.CommitGroup(ids)
	if r.tele != nil {
		joined := make([]byte, 0, 16*len(ids))
		for i, id := range ids {
			if i > 0 {
				joined = append(joined, ',')
			}
			joined = append(joined, id...)
		}
		r.tele.RecordAt(telemetry.SimUnit(r.now), 0, "commit-group",
			fmt.Sprintf("commit group (%d)", len(ids)), r.telePID, 0, r.runSpan,
			"size", fmt.Sprint(len(ids)), "txns", string(joined))
	}
	for _, id := range ids {
		t := r.txns[r.byID[id]]
		r.stats.Committed++
		r.latencies = append(r.latencies, r.now-t.begun)
		if r.now > r.lastCommit {
			r.lastCommit = r.now
		}
		if r.caps.Retired != nil {
			r.caps.Retired(id)
		}
		if r.tele != nil {
			start := telemetry.SimUnit(t.begun)
			r.tele.RecordAt(start, telemetry.SimUnit(r.now)-start, "txn", string(id),
				r.telePID, int64(t.home)+1, r.runSpan,
				"attempts", fmt.Sprint(t.attempt+1), "steps", fmt.Sprint(t.seq))
		}
	}
	r.led.Committed(ids)
}

// abort rolls back the victims plus everything that observed their values,
// notifies the control, and schedules restarts or resumptions.
//
// With Config.PartialRecovery and a control implementing sched.PartialAborter,
// each named victim is rolled back only to its last class-wide breakpoint
// (the kept prefix stays performed and the transaction resumes from the
// saved program state) — the paper's smaller unit of recovery. Escalation:
// a victim whose previous partial rollback kept the same prefix is fully
// aborted instead, so conflicts rooted in the prefix still resolve.
// Transactions that observed values written by an undone suffix cascade to
// full aborts.
func (r *Runner) abort(victims []model.TxnID, stall bool) {
	canPartial := r.caps.AbortedTo != nil && r.cfg.PartialRecovery

	keep := make(map[model.TxnID]int) // victim -> kept seq (0 = full)
	for _, v := range victims {
		vi, ok := r.byID[v]
		if !ok {
			continue
		}
		t := r.txns[vi]
		if t.Committed || (t.status == stIdle && t.seq == 0) {
			continue // committed, or fully rolled back already
		}
		k := 0
		if canPartial && !t.Finished {
			k = t.bound2
			if k > t.seq {
				k = t.seq
			}
			if k == t.seq {
				k = 0 // nothing beyond the breakpoint: a partial would be a no-op
			}
			// Escalate after repeated partial rollbacks to the same point:
			// the conflict evidently lives in the kept prefix (or keeps
			// recurring), so redo the transaction outright.
			if k > 0 && k == t.lastKeep && t.partialStreak >= 2 {
				k = 0
			}
		}
		keep[v] = k
	}
	if len(keep) == 0 {
		return
	}
	// Anyone who observed a value authored beyond a kept prefix must fully
	// abort with the victims; cascades forced by a stall break are not
	// counted.
	named := len(keep)
	ids := r.led.Close(keep)
	if !stall {
		r.stats.Cascades += len(ids) - named
	}
	if err := r.store.AbortSuffix(keep); err != nil {
		// The dependency closure above should make this unreachable; an
		// error means a control/scheduler bug. Surface it loudly in tests
		// via the trace validation; keep running.
		panic(err)
	}
	var fullIDs []model.TxnID
	rank := 0
	for _, id := range ids {
		ti := r.byID[id]
		t := r.txns[ti]
		k := keep[id]
		r.stats.StepsUndone += int64(t.seq - k)
		savable := t.bound2
		if savable > t.seq {
			savable = t.seq
		}
		if k == 0 {
			r.stats.StepsUndoneSavable += int64(savable)
			r.fullRollback(ti, rank)
			fullIDs = append(fullIDs, id)
			rank++
		} else {
			r.partialRollback(ti, k)
			r.caps.AbortedTo(id, k)
		}
		if r.tele != nil {
			kind := "full"
			if k > 0 {
				kind = "partial"
			}
			r.tele.RecordAt(telemetry.SimUnit(r.now), 0, "abort", "abort "+string(id),
				r.telePID, int64(t.home)+1, r.runSpan,
				"txn", string(id), "kind", kind, "kept", fmt.Sprint(k))
		}
	}
	if len(fullIDs) > 0 {
		r.control.Aborted(fullIDs)
	}
	r.led.RolledBack(keep)
	r.offerWaiters()
}

// fullRollback resets a transaction for a from-scratch restart.
func (r *Runner) fullRollback(ti, rank int) {
	t := r.txns[ti]
	t.attempt++ // invalidates in-flight events
	t.status = stIdle
	t.seq = 0
	t.steps = nil
	t.states = nil
	t.bound2 = 0
	t.lastKeep = -1
	t.partialStreak = 0
	delete(r.waiters, ti)
	r.stats.Aborts++
	r.stats.Restarts++
	// Exponential backoff with deterministic pseudo-random jitter (hashed
	// from the transaction and attempt): victims restarting at identical
	// offsets re-collide forever — the classic alternating-victim livelock
	// of restart-based controls.
	exp := t.attempt
	if exp > 4 {
		exp = 4
	}
	window := restartDelay << uint(exp)
	jitter := int64(hashString(fmt.Sprintf("%s/%d", t.ID, t.attempt))) % window
	delay := restartDelay*(int64(rank)+1) + jitter
	r.push(r.now+delay, evBegin, ti, t.attempt)
}

// partialRollback rewinds a transaction to seq = keep: the program state is
// restored from the saved snapshot, and the transaction resumes after a
// short delay under the same logical identity and priority. (The ledger's
// record drops the undone suffix from the surviving execution.)
func (r *Runner) partialRollback(ti, keepSeq int) {
	t := r.txns[ti]
	t.attempt++               // invalidates in-flight events for the undone suffix
	t.cur = t.states[keepSeq] // state before step keepSeq+1
	t.states = t.states[:keepSeq]
	t.steps = t.steps[:keepSeq]
	t.seq = keepSeq
	if keepSeq == t.lastKeep {
		t.partialStreak++
	} else {
		t.lastKeep = keepSeq
		t.partialStreak = 1
	}
	if t.bound2 > keepSeq {
		t.bound2 = keepSeq
	}
	t.status = stIdle
	delete(r.waiters, ti)
	r.stats.Aborts++
	r.stats.PartialRollbacks++
	// Backoff grows with the streak and carries deterministic jitter so
	// symmetric conflicts desynchronize instead of replaying.
	streak := t.partialStreak
	if streak > 4 {
		streak = 4
	}
	window := restartDelay << uint(streak)
	jitter := int64(hashString(fmt.Sprintf("%s@%d/%d", t.ID, keepSeq, t.partialStreak))) % window
	r.push(r.now+restartDelay+jitter, evArrive, ti, t.attempt)
}

// offerWaiters re-presents every waiting request, oldest priority first.
// Granting a waiter can trigger further grants, aborts, or commits that
// re-enter this function; re-entrant calls just flag another pass.
func (r *Runner) offerWaiters() {
	if r.offering {
		r.offerPending = true
		return
	}
	r.offering = true
	defer func() { r.offering = false }()
	for pass := 0; ; pass++ {
		r.offerPending = false
		if len(r.waiters) == 0 {
			return
		}
		var order []int
		for ti := range r.waiters {
			order = append(order, ti)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := r.txns[order[i]], r.txns[order[j]]
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return order[i] < order[j]
		})
		for _, ti := range order {
			if !r.waiters[ti] {
				continue // aborted meanwhile
			}
			t := r.txns[ti]
			if t.status != stWaiting {
				delete(r.waiters, ti)
				continue
			}
			delete(r.waiters, ti)
			t.status = stReady
			r.decide(ti)
		}
		if !r.offerPending || pass > 4*len(r.txns) {
			return
		}
	}
}

// breakStall resolves a global stall (every live transaction is waiting) by
// aborting the youngest waiters, mirroring the paper's assumption of "some
// priority scheme and rollback mechanism to insure that no initiated
// transaction gets blocked indefinitely". Consecutive stalls with no
// intervening progress escalate: each round one more of the youngest
// waiters is sacrificed, so in the worst case only the oldest remains and
// must be able to run alone.
func (r *Runner) breakStall() bool {
	if len(r.waiters) == 0 {
		return false
	}
	if r.stats.Committed == r.stallCommits {
		r.stallEscalate++
	} else {
		r.stallEscalate = 1
		r.stallCommits = r.stats.Committed
	}
	var order []int
	for ti := range r.waiters {
		order = append(order, ti)
	}
	sort.Slice(order, func(i, j int) bool { // youngest first
		a, b := r.txns[order[i]], r.txns[order[j]]
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		return order[i] > order[j]
	})
	nv := r.stallEscalate
	if nv > len(order) {
		nv = len(order)
	}
	victims := make([]model.TxnID, 0, nv)
	for _, ti := range order[:nv] {
		victims = append(victims, r.txns[ti].ID)
	}
	r.stats.StallBreaks++
	r.abort(victims, true)
	return true
}

func (r *Runner) result() *Result {
	if tel := r.cfg.Telemetry; tel != nil && r.tele != nil {
		end := r.now
		if r.lastCommit > end {
			end = r.lastCommit
		}
		r.tele.Arg(r.runSpan, "committed", fmt.Sprint(r.stats.Committed))
		r.tele.EndAt(r.runSpan, telemetry.SimUnit(end))
		tel.Metrics.ObserveSnapshot("sim", r.stats)
		tel.Metrics.ObserveSnapshot("control."+r.control.Name(), r.control.Stats().Snapshot())
	}
	return &Result{
		Exec:         r.led.Execution(),
		Stats:        r.stats,
		Control:      r.control.Stats(),
		Time:         r.lastCommit,
		Latencies:    r.latencies,
		Final:        r.store.Values(),
		CommitGroups: r.led.Groups(),
	}
}

// Run is a convenience wrapper: build a Runner and run it.
func Run(cfg Config, programs []model.Program, control sched.Control, spec breakpoint.Spec, init map[model.EntityID]model.Value) (*Result, error) {
	return New(cfg, programs, control, spec, init).Run()
}

// RunContext is Run with cooperative cancellation.
func RunContext(ctx context.Context, cfg Config, programs []model.Program, control sched.Control, spec breakpoint.Spec, init map[model.EntityID]model.Value) (*Result, error) {
	return New(cfg, programs, control, spec, init).RunContext(ctx)
}
