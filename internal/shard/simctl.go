// SimControl is the simulator-facing face of the partitioned store: a
// sched.Control in which each shard's lock table lives at its own processor
// of a simulated message bus (internal/net). Lock requests, grants, and
// per-shot commit votes travel as typed messages. The robustness machinery
// that is not about locks — failure detector, retransmission backoff, wait
// table, deadlock probes, grace-period escalation, chaos schedule — is
// internal/cluster's, the same kit internal/dist runs on, so the sharded
// engine survives the same partition/crash chaos grid (E18); epoch fencing
// of lock and shot messages and the anti-entropy lock resync after a crash
// are this file's.
//
// Protocol shape (Chockler & Gotsman's multi-shot commit specialized to
// Lynch's breakpoint units):
//
//   - A transaction's coordinator is the home shard of its first requested
//     entity. Steps at the coordinator's shard acquire locks directly;
//     steps homed elsewhere send LockRequest and wait for LockGrant
//     (retransmitted until granted — re-granting an already-held lock is
//     idempotent, so lost grants cost latency, never correctness).
//   - Each breakpoint-delimited unit commits as one shot: at the unit's
//     closing breakpoint the coordinator releases its own shard's locks,
//     sends ShotPrepare to every other participant shard, and holds the
//     transaction at the boundary until every ShotVote is in. Participants
//     release the unit's locks when they prepare; a committed shot is
//     irrevocable, which is exactly the multilevel-atomicity contract —
//     everyone may interleave at a unit boundary (coarseness-2 cut).
//   - Strictness therefore holds within a shot and is relaxed across
//     shots: Abadi's "strong partition serializable", with the partition
//     boundary drawn at breakpoints instead of data partitions.
//
// Failure rules: a crashed processor takes its lock table with it, so every
// transaction it coordinates is aborted (CrashAborts) — their control state
// is gone. Transactions coordinated elsewhere keep running: their grants at
// the crashed shard are re-installed on rejoin by anti-entropy (each
// coordinator answers SyncRequest with the locks it believes it holds
// there), and the rejoining shard grants nothing until the resync
// completes. Waits that can only resolve through a dead or suspected
// processor abort after the grace period (GraceAborts); deadlock cycles
// spanning shards are closed by probes (ProbeDeadlocks).
package shard

import (
	"fmt"

	"mla/internal/cluster"
	"mla/internal/coherent"
	"mla/internal/fault"
	"mla/internal/lock"
	"mla/internal/model"
	"mla/internal/nest"
	mnet "mla/internal/net"
	"mla/internal/sched"
)

// SimParams configures the simulator-side sharded control. Every protocol
// timer is derived from Delay (cluster.Timers).
type SimParams struct {
	// Shards is the shard count; one bus processor per shard.
	Shards int
	// Delay is the bus's one-hop message latency in simulator units.
	Delay int64

	// Faults supplies per-message drop/delay verdicts and the scheduled
	// partition/crash chaos. Nil means a reliable, failure-free network.
	Faults *fault.Injector
	// Nest supplies the workload's multilevel nesting. When set, every
	// grant additionally passes the Section 6 delay rule over the online
	// coherent closure: locks released at a shot boundary reopen the
	// entity only to transactions whose pair level tolerates that
	// boundary's coarseness — an audit that must see transfers atomically
	// (level 1) still waits even though the lock plane would grant. Nil
	// disables the gate (protocol unit tests that never check histories).
	Nest *nest.Nest
}

// simNode is one shard processor: the hard lock state for its slice of the
// entity space plus the volatile shot and recovery state (the wait table
// and failure detector are the kit's). A crash wipes everything here; the
// lock table is rebuilt by anti-entropy on rejoin.
type simNode struct {
	id int
	up bool

	locks *lock.Striped
	// shotDone fences duplicate ShotPrepare deliveries: retransmits of an
	// already-prepared shot re-vote without re-releasing (a re-release
	// after the next unit acquired fresh locks here would tear it).
	shotDone map[model.TxnID]int

	// Anti-entropy recovery: grants are withheld between rejoin and the
	// last peer's SyncReply (or the deadline), so a fresh request cannot
	// steal a lock a coordinator still rightfully claims.
	recovering bool
	recoverBy  int64
	syncNeed   map[int]bool
}

func newSimNode(id int) *simNode {
	n := &simNode{id: id, up: true}
	n.reset()
	return n
}

// reset zeroes all per-node state (crash, and initial construction).
func (n *simNode) reset() {
	n.locks = lock.NewStriped(1)
	n.shotDone = make(map[model.TxnID]int)
	n.recovering = false
	n.syncNeed = nil
}

// reqRec is one outstanding remote lock request, owned by the coordinator
// and retransmitted with capped backoff until the grant arrives.
type reqRec struct {
	entity model.EntityID
	shard  int
	since  int64
	cluster.Backoff
}

// shotRec is one in-flight shot round: the participants still owing votes,
// and the full remote-participant set so the coordinator can stop believing
// the released grants once the shot commits.
type shotRec struct {
	shot  int
	need  map[int]bool
	parts map[int]bool
	since int64
	cluster.Backoff
}

// SimControl is the sharded concurrency control the simulator drives
// through sched.Control, sched.Ticker, sched.Waker, and sched.AsyncAborter.
type SimControl struct {
	shards int
	router *Router

	// Multilevel admission gate (nil when SimParams.Nest is nil): the
	// same online coherent closure sched.Preventer grants through. The
	// lock/shot plane owns distribution — who holds what, where, through
	// which failures — while the closure is the ground-truth conflict
	// oracle that keeps early release at shot boundaries sound.
	oc *coherent.Online

	// kit is the failure-handling machinery over bus: clock, chaos
	// schedule, failure detector, wait table, probes, grace, abort queue.
	kit   *cluster.Kit
	bus   *mnet.Bus
	nodes []*simNode

	// Control plane, carried by the migrating transactions themselves
	// (like dist.Preventer's): priorities, incarnation epochs, coordinator
	// placement, and each coordinator's record of its remote grants.
	prio    map[model.TxnID]int64
	epoch   map[model.TxnID]int
	coord   map[model.TxnID]int
	granted map[model.TxnID]map[model.EntityID]bool

	unitParts   map[model.TxnID]map[int]bool // shards touched in the open unit
	shotIdx     map[model.TxnID]int
	pendingReq  map[model.TxnID]*reqRec
	pendingShot map[model.TxnID]*shotRec
	finished    map[model.TxnID]bool
	crossed     map[model.TxnID]bool

	stats sched.Stats

	Shots          int // breakpoint units committed through the shot protocol
	CrossShard     int // finished transactions that touched more than one shard
	GraceAborts    int // waiters aborted after the unreachability grace period
	CrashAborts    int // transactions lost with their crashed coordinator
	ProbeDeadlocks int // cross-shard deadlock cycles closed by probes
	Retransmits    int // lock-request and shot retransmissions beyond the first
}

// NewSimControl creates the sharded control with full network, failure, and
// chaos configuration.
func NewSimControl(pr SimParams) *SimControl {
	pr.Shards = max(pr.Shards, 1)
	c := &SimControl{
		shards:      pr.Shards,
		router:      NewRouter(pr.Shards),
		prio:        make(map[model.TxnID]int64),
		epoch:       make(map[model.TxnID]int),
		coord:       make(map[model.TxnID]int),
		granted:     make(map[model.TxnID]map[model.EntityID]bool),
		unitParts:   make(map[model.TxnID]map[int]bool),
		shotIdx:     make(map[model.TxnID]int),
		pendingReq:  make(map[model.TxnID]*reqRec),
		pendingShot: make(map[model.TxnID]*shotRec),
		finished:    make(map[model.TxnID]bool),
		crossed:     make(map[model.TxnID]bool),
	}
	if pr.Nest != nil {
		// Never sealed (no Retired hook): with delayed announcements
		// "committed ⇒ no step of t will arrive later" is not yet established.
		c.oc = coherent.NewOnline(pr.Nest.K(), pr.Nest.Level)
	}
	c.kit = cluster.New(pr.Shards, pr.Delay, pr.Faults, nil, cluster.Host{
		Epoch: func(t model.TxnID) int { return c.epoch[t] },
		Prio:  func(t model.TxnID) (int64, bool) { pr, ok := c.prio[t]; return pr, ok },
		// A transaction's control state lives at its coordinator, so waiting
		// on it needs the coordinator reachable; its waits-for edges are
		// wherever its wait record is, and probes chase it there.
		Home:    func(t model.TxnID) (int, bool) { q, ok := c.coord[t]; return q, ok },
		ProbeTo: func(t model.TxnID) (int, bool) { return c.kit.WaitSite(t) },
		Done:    func(t model.TxnID) bool { return c.finished[t] },
		Crash:   c.crashProc,
		Rejoin:  c.rejoinProc,
		Deliver: c.receive,
	})
	c.bus = c.kit.Bus()
	c.nodes = make([]*simNode, pr.Shards)
	for i := range c.nodes {
		c.nodes[i] = newSimNode(i)
	}
	return c
}

// Name implements sched.Control.
func (c *SimControl) Name() string { return fmt.Sprintf("shard/s=%d", c.shards) }

// NetStats returns the bus traffic counters.
func (c *SimControl) NetStats() mnet.Stats { return c.bus.Stats() }

// Stats implements sched.Control.
func (c *SimControl) Stats() *sched.Stats { return &c.stats }

// DeadlineAborted implements the sched.DeadlineAborter capability.
func (*SimControl) DeadlineAborted(model.TxnID) {}

// Begin implements sched.Control. Each (re)start bumps the transaction's
// epoch, fencing every in-flight message about the previous incarnation.
func (c *SimControl) Begin(t model.TxnID, prio int64) {
	c.prio[t] = prio
	c.epoch[t]++
	c.forget(t)
}

// forget erases all per-transaction state except priority and epoch,
// releasing any locks the incarnation still holds anywhere. The synchronous
// cross-shard release is a control-plane event the migrating transaction
// itself carries (exactly dist.Preventer's justification for Aborted); the
// message-driven data plane never relies on it, only benefits.
func (c *SimControl) forget(t model.TxnID) {
	delete(c.coord, t)
	delete(c.granted, t)
	delete(c.unitParts, t)
	delete(c.shotIdx, t)
	delete(c.pendingReq, t)
	delete(c.pendingShot, t)
	delete(c.finished, t)
	delete(c.crossed, t)
	c.kit.Forget(t)
	for _, n := range c.nodes {
		delete(n.shotDone, t)
		if n.up {
			n.locks.Release(t)
		}
	}
	for _, n := range c.nodes {
		if n.up {
			c.grantPass(n)
		}
	}
}

// Request implements sched.Control. A step homed at the coordinator's own
// shard acquires directly; a remote step opens (or re-checks) a LockRequest
// round. A transaction at a shot boundary waits until every participant
// voted — the next unit must not overlap the uncommitted shot.
func (c *SimControl) Request(t model.TxnID, seq int, x model.EntityID) sched.Decision {
	if c.pendingShot[t] != nil {
		c.stats.Waits++
		return sched.Decision{Kind: sched.Wait}
	}
	s := c.router.Shard(x)
	co, ok := c.coord[t]
	if !ok {
		co = s
		c.coord[t] = co
	}
	if !c.nodes[co].up {
		return c.strand(t, co)
	}
	// Multilevel delay rule (Section 6): every closure predecessor must
	// have closed the segment containing its step at the pair level before
	// this step may proceed — the lock plane alone would re-admit any
	// requester the moment a shot boundary releases, which is only legal
	// for observers coarse enough to interleave there. The wait record
	// lands at the coordinator's shard so local cycle detection and
	// cross-shard probes resolve closure deadlocks like lock deadlocks.
	if c.oc != nil {
		if blk := c.closureBlockers(t, x); len(blk) > 0 {
			return c.waitAt(co, t, x, blk)
		}
	}
	node := c.nodes[s]
	if s == co {
		c.kit.Unstrand(t)
		if node.recovering {
			c.stats.Waits++
			return sched.Decision{Kind: sched.Wait}
		}
		ok, holder := node.locks.TryAcquire(t, x)
		if ok {
			c.kit.ClearWait(t)
			return sched.Decision{Kind: sched.Grant}
		}
		return c.waitAt(co, t, x, map[model.TxnID]bool{holder: true})
	}
	// Remote shard: the coordinator's own grant record is authoritative —
	// if the shard crashed since, anti-entropy re-installs the lock before
	// the rejoined shard grants anything conflicting.
	if c.granted[t][x] {
		c.kit.Unstrand(t)
		c.kit.ClearWait(t)
		return sched.Decision{Kind: sched.Grant}
	}
	if !node.up {
		return c.strand(t, s)
	}
	c.kit.Unstrand(t)
	pr := c.pendingReq[t]
	if pr == nil || pr.entity != x {
		c.kit.ClearWait(t)
		pr = &reqRec{entity: x, shard: s, since: c.kit.Now()}
		c.pendingReq[t] = pr
		c.sendLockReq(t, pr)
	}
	c.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}

// closureBlockers returns the unfinished closure predecessors of t's
// would-be step on x whose segment is still open at the pair level: the
// delay rule sched.Preventer grants through (coherent.Online.ForEachOpenPred).
func (c *SimControl) closureBlockers(t model.TxnID, x model.EntityID) map[model.TxnID]bool {
	var blk map[model.TxnID]bool
	c.oc.ForEachOpenPred(t, x, func(u model.TxnID) {
		if !c.finished[u] {
			if blk == nil {
				blk = make(map[model.TxnID]bool)
			}
			blk[u] = true
		}
	})
	return blk
}

func (c *SimControl) strand(t model.TxnID, proc int) sched.Decision {
	c.kit.Strand(t, proc)
	c.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}

// waitAt records t's wait for x at the coordinator's own shard co and
// resolves a deadlock among the edges recorded there on the spot.
func (c *SimControl) waitAt(co int, t model.TxnID, x model.EntityID, blockers map[model.TxnID]bool) sched.Decision {
	c.kit.SetWait(co, t, x).Blockers = blockers
	if victim, ok := c.kit.LocalVictim(co, t); ok {
		if victim != t {
			c.stats.Wounds++
		}
		return sched.Decision{Kind: sched.Abort, Victims: []model.TxnID{victim}}
	}
	c.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}

// Performed implements sched.Control: the step's shard joins the open
// unit's participant set; a coarseness-2 breakpoint commits the unit as one
// shot. Finer breakpoints (cut > 2) do NOT end the shot — only at a
// coarseness-2 cut may every observer interleave, so releasing locks there
// is the one boundary that is safe for all levels at once; holding through
// finer cuts keeps the control conservative (it admits a strict subset of
// the MLA-legal histories). cut == 0 (no breakpoint, or the last step)
// likewise continues the unit; the final unit commits at Finished.
func (c *SimControl) Performed(t model.TxnID, seq int, x model.EntityID, cut int) {
	if c.oc != nil {
		if !c.oc.AddStep(t, x) {
			// The delay rule makes a cycle at insertion impossible;
			// hitting one means the gate was bypassed — fail loudly.
			panic(fmt.Sprintf("shard: sim control admitted a cyclic step %s on %s", t, x))
		}
		if cut > 0 {
			c.oc.AddCut(t, cut)
		}
	}
	s := c.router.Shard(x)
	up := c.unitParts[t]
	if up == nil {
		up = make(map[int]bool)
		c.unitParts[t] = up
	}
	up[s] = true
	co, ok := c.coord[t]
	if !ok {
		co = s
		c.coord[t] = co
	}
	if s != co {
		c.crossed[t] = true
	}
	if cut != 2 {
		return
	}
	delete(c.unitParts, t)
	// The coordinator's shard prepares inline: its locks for the unit
	// release at the boundary, before any remote vote is awaited — the
	// shot's outcome is already determined (all steps performed).
	if up[co] {
		if n := c.nodes[co]; n.up {
			n.locks.Release(t)
			c.grantPass(n)
		}
	}
	c.shotIdx[t]++
	need := make(map[int]bool)
	for q := range up {
		if q != co {
			need[q] = true
		}
	}
	if len(need) == 0 {
		c.Shots++
		return
	}
	parts := make(map[int]bool, len(need))
	for q := range need {
		parts[q] = true
	}
	sr := &shotRec{shot: c.shotIdx[t], need: need, parts: parts, since: c.kit.Now()}
	c.pendingShot[t] = sr
	c.sendShot(t, sr)
}

// Finished implements sched.Control: the final unit commits implicitly and
// every lock the transaction still holds is released (see forget for the
// synchronous-release justification).
func (c *SimControl) Finished(t model.TxnID) {
	c.finished[t] = true
	if c.crossed[t] {
		c.CrossShard++
	}
	delete(c.pendingReq, t)
	delete(c.pendingShot, t)
	c.kit.Unstrand(t)
	delete(c.coord, t)
	delete(c.granted, t)
	delete(c.unitParts, t)
	delete(c.shotIdx, t)
	delete(c.crossed, t)
	c.kit.ClearWait(t)
	for _, n := range c.nodes {
		if n.up {
			n.locks.Release(t)
		}
	}
	for _, n := range c.nodes {
		if n.up {
			c.grantPass(n)
		}
	}
}

// Aborted implements sched.Control. The epoch bump fences every in-flight
// message about the rolled-back incarnations.
func (c *SimControl) Aborted(victims []model.TxnID) {
	drop := make(map[model.TxnID]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		c.epoch[t]++
		c.forget(t)
	}
	if c.oc != nil {
		c.oc.Rebuild(drop)
	}
}

// TakeVictims implements sched.AsyncAborter: transactions the protocol
// machinery (probes, failure detector, crashes) decided to abort since the
// last drain, sorted for determinism.
func (c *SimControl) TakeVictims() []model.TxnID { return c.kit.TakeVictims() }

// grantPass retries every wait queued at a node after its lock table
// changed. Remote waiters are granted by message; local waiters only get
// their blocker sets refreshed — the simulator re-offers their Request,
// which acquires directly.
func (c *SimControl) grantPass(n *simNode) {
	if n.recovering {
		return
	}
	waiting := c.kit.Waiting(n.id)
	for _, t := range model.SortedKeys(waiting) {
		w := waiting[t]
		if w.Epoch != c.epoch[t] || c.finished[t] {
			c.kit.ClearWait(t)
			continue
		}
		if c.coord[t] == n.id {
			if h := n.locks.HolderOf(w.Entity); h == "" || h == t {
				w.Blockers = nil
			}
			continue
		}
		ok, holder := n.locks.TryAcquire(t, w.Entity)
		if !ok {
			w.Blockers = map[model.TxnID]bool{holder: true}
			continue
		}
		c.kit.ClearWait(t)
		c.bus.Send(mnet.Message{
			Kind: mnet.LockGrant, From: n.id, To: c.coord[t],
			Txn: t, Epoch: w.Epoch, Entity: w.Entity,
		})
	}
}

// sendLockReq transmits the outstanding request and schedules the next
// retransmission with capped exponential backoff.
func (c *SimControl) sendLockReq(t model.TxnID, pr *reqRec) {
	c.bus.Send(mnet.Message{
		Kind: mnet.LockRequest, From: c.coord[t], To: pr.shard,
		Txn: t, Epoch: c.epoch[t], Entity: pr.entity,
	})
	if pr.Tries > 0 {
		c.Retransmits++
	}
	pr.Sent(c.kit.Now(), c.kit.Timers().RetransmitEvery)
}

// sendShot transmits ShotPrepare to every participant still owing a vote.
func (c *SimControl) sendShot(t model.TxnID, sr *shotRec) {
	co := c.coord[t]
	for _, q := range model.SortedKeys(sr.need) {
		c.bus.Send(mnet.Message{
			Kind: mnet.ShotPrepare, From: co, To: q,
			Txn: t, Epoch: c.epoch[t], Shot: sr.shot,
		})
		if sr.Tries > 0 {
			c.Retransmits++
		}
	}
	sr.Sent(c.kit.Now(), c.kit.Timers().RetransmitEvery)
}

// ---- clock and periodic machinery ----

// Tick implements sched.Ticker: advance the clock, apply due chaos,
// deliver matured messages, and run every shard's periodic machinery.
func (c *SimControl) Tick(now int64) {
	if !c.kit.Advance(now) {
		return
	}
	if c.shards > 1 {
		c.kit.Heartbeats()
		c.recoverySweep()
		c.retransmit()
		c.ProbeDeadlocks += c.kit.ProbeSweep()
	}
	c.GraceAborts += c.kit.GraceSweep()
	c.graceSweep()
}

// NextWake implements sched.Waker: the earliest instant any timer or
// in-flight message needs a Tick.
func (c *SimControl) NextWake(int64) int64 {
	next := c.kit.NextWake()
	if c.shards > 1 {
		for _, n := range c.nodes {
			if n.recovering {
				next = cluster.Earlier(next, n.recoverBy)
			}
		}
		for _, pr := range c.pendingReq {
			next = cluster.Earlier(next, pr.NextSend)
		}
		for _, sr := range c.pendingShot {
			next = cluster.Earlier(next, sr.NextSend)
		}
	}
	return next
}

// recoverySweep ends anti-entropy recovery at its deadline even when some
// peers never replied (they may have crashed too): waiting forever would
// trade a bounded resync window for unavailability.
func (c *SimControl) recoverySweep() {
	for _, n := range c.nodes {
		if n.up && n.recovering && c.kit.Now() >= n.recoverBy {
			n.recovering = false
			c.grantPass(n)
		}
	}
}

// retransmit resends outstanding lock requests and shot rounds whose
// backoff expired. A sender whose coordinator shard is down stays quiet —
// the crash already queued the transaction for abort.
func (c *SimControl) retransmit() {
	now := c.kit.Now()
	for _, t := range model.SortedKeys(c.pendingReq) {
		pr := c.pendingReq[t]
		if co, ok := c.coord[t]; ok && c.nodes[co].up && now >= pr.NextSend {
			c.sendLockReq(t, pr)
		}
	}
	for _, t := range model.SortedKeys(c.pendingShot) {
		sr := c.pendingShot[t]
		if co, ok := c.coord[t]; ok && c.nodes[co].up && now >= sr.NextSend {
			c.sendShot(t, sr)
		}
	}
}

// graceSweep is the lock plane's share of grace-period escalation (the kit
// sweeps stranded requests and blocked waiters): lock requests and shot
// rounds addressed to participants their coordinator cannot reach abort
// once the grace period expires.
func (c *SimControl) graceSweep() {
	now, grace := c.kit.Now(), c.kit.Timers().Grace
	for _, t := range model.SortedKeys(c.pendingReq) {
		pr := c.pendingReq[t]
		co, ok := c.coord[t]
		if !ok || !c.nodes[co].up {
			continue // the coordinator crash already queued the abort
		}
		if c.kit.Unreachable(co, pr.shard) && now-pr.since > grace {
			c.GraceAborts++
			c.kit.Abort(t)
			pr.since = now // don't re-fire while the abort drains
		}
	}
	for _, t := range model.SortedKeys(c.pendingShot) {
		sr := c.pendingShot[t]
		co, ok := c.coord[t]
		if !ok || !c.nodes[co].up || now-sr.since <= grace {
			continue
		}
		for q := range sr.need {
			if c.kit.Unreachable(co, q) {
				c.GraceAborts++
				c.kit.Abort(t)
				sr.since = now
				break
			}
		}
	}
}

// crashProc kills shard q: its lock table and soft state vanish, its
// in-flight mailbox dies on the bus, and every transaction it coordinates
// is lost with it (their control state has no other home). Transactions
// coordinated elsewhere keep their claims — anti-entropy restores their
// locks here on rejoin.
func (c *SimControl) crashProc(q int) {
	n := c.nodes[q]
	if !n.up {
		return
	}
	n.reset()
	n.up = false
	c.kit.Crash(q)
	for _, t := range model.SortedKeys(c.coord) {
		if c.coord[t] == q && !c.finished[t] {
			c.CrashAborts++
			c.kit.Abort(t)
		}
	}
}

// rejoinProc restarts shard q with an empty lock table: it asks every live
// peer for the locks their coordinated transactions claim here, and grants
// nothing until the resync completes (or its deadline passes).
func (c *SimControl) rejoinProc(q int) {
	n := c.nodes[q]
	if n.up {
		return
	}
	n.up = true
	c.kit.Rejoin(q)
	if c.shards == 1 {
		return
	}
	n.syncNeed = make(map[int]bool)
	for p := 0; p < c.shards; p++ {
		if p != q && c.nodes[p].up {
			n.syncNeed[p] = true
		}
	}
	if len(n.syncNeed) > 0 {
		n.recovering = true
		n.recoverBy = c.kit.Now() + c.kit.Timers().SuspectAfter
	}
	c.bus.Broadcast(mnet.Message{Kind: mnet.SyncRequest, From: q})
	// Re-arm every sender that was waiting out q's downtime.
	for _, pr := range c.pendingReq {
		if pr.shard == q {
			pr.Rearm(c.kit.Now())
		}
	}
	for _, sr := range c.pendingShot {
		if sr.need[q] {
			sr.Rearm(c.kit.Now())
		}
	}
}

// ---- message handlers ----

// receive is the bus delivery callback: dispatch one message to its
// destination shard. Any message is liveness evidence for its sender.
func (c *SimControl) receive(m mnet.Message) {
	n := c.nodes[m.To]
	if !n.up {
		return
	}
	c.kit.Heard(m.To, m.From)
	switch m.Kind {
	case mnet.Heartbeat:
		// Liveness already recorded above.
	case mnet.LockRequest:
		c.onLockRequest(n, m)
	case mnet.LockGrant:
		c.onLockGrant(m)
	case mnet.ShotPrepare:
		c.onShotPrepare(n, m)
	case mnet.ShotVote:
		c.onShotVote(m)
	case mnet.Probe:
		c.ProbeDeadlocks += c.kit.OnProbe(m)
	case mnet.SyncRequest:
		c.onSyncRequest(m)
	case mnet.SyncReply:
		c.onSyncReply(n, m)
	}
}

// onLockRequest tries to acquire at the owning shard. A recovering shard
// only queues the request; the post-resync grant pass answers it. A busy
// lock queues a wait record that the next release's grant pass (or a probe
// victim) resolves. Re-requests for an already-held lock re-grant
// idempotently, which is what makes lost LockGrants harmless.
func (c *SimControl) onLockRequest(n *simNode, m mnet.Message) {
	if m.Epoch != c.epoch[m.Txn] || c.finished[m.Txn] {
		return
	}
	if n.recovering {
		c.kit.SetWait(n.id, m.Txn, m.Entity)
		return
	}
	ok, holder := n.locks.TryAcquire(m.Txn, m.Entity)
	if ok {
		if q, have := c.kit.WaitSite(m.Txn); have && q == n.id {
			c.kit.ClearWait(m.Txn)
		}
		c.bus.Send(mnet.Message{
			Kind: mnet.LockGrant, From: m.To, To: m.From,
			Txn: m.Txn, Epoch: m.Epoch, Entity: m.Entity,
		})
		return
	}
	c.kit.SetWait(n.id, m.Txn, m.Entity).Blockers = map[model.TxnID]bool{holder: true}
}

// onLockGrant records the coordinator's claim. A grant that arrives after
// the transaction finished (or re-requested a different entity) still holds
// the lock at the sender — release it rather than leak it.
func (c *SimControl) onLockGrant(m mnet.Message) {
	t := m.Txn
	if m.Epoch != c.epoch[t] {
		return
	}
	if c.finished[t] {
		src := c.nodes[m.From]
		if src.up {
			src.locks.Release(t)
			c.grantPass(src)
		}
		return
	}
	g := c.granted[t]
	if g == nil {
		g = make(map[model.EntityID]bool)
		c.granted[t] = g
	}
	g[m.Entity] = true
	if pr := c.pendingReq[t]; pr != nil && pr.entity == m.Entity {
		delete(c.pendingReq, t)
	}
}

// onShotPrepare commits one shot at a participant: release the unit's
// locks, remember the shot index (so retransmitted prepares re-vote without
// tearing the next unit's locks), and vote.
func (c *SimControl) onShotPrepare(n *simNode, m mnet.Message) {
	if m.Epoch != c.epoch[m.Txn] {
		return
	}
	if n.shotDone[m.Txn] < m.Shot {
		n.shotDone[m.Txn] = m.Shot
		n.locks.Release(m.Txn)
		c.grantPass(n)
	}
	c.bus.Send(mnet.Message{
		Kind: mnet.ShotVote, From: m.To, To: m.From,
		Txn: m.Txn, Epoch: m.Epoch, Shot: m.Shot,
	})
}

// onShotVote collects one participant's vote; the last vote commits the
// shot and retires the coordinator's claims on the released shards — the
// next unit re-requests from scratch.
func (c *SimControl) onShotVote(m mnet.Message) {
	t := m.Txn
	sr := c.pendingShot[t]
	if sr == nil || sr.shot != m.Shot || m.Epoch != c.epoch[t] {
		return
	}
	delete(sr.need, m.From)
	if len(sr.need) > 0 {
		return
	}
	delete(c.pendingShot, t)
	c.Shots++
	if g := c.granted[t]; g != nil {
		for x := range g {
			if sr.parts[c.router.Shard(x)] {
				delete(g, x)
			}
		}
	}
}

// onSyncRequest answers anti-entropy: the replying shard reports, for every
// transaction it coordinates, the locks it believes granted at the
// requester. The claims are re-validated against the coordinator's live
// state at delivery, which fences shots and aborts that landed while the
// reply was in flight.
func (c *SimControl) onSyncRequest(m mnet.Message) {
	held := make(map[model.TxnID][]model.EntityID)
	for _, t := range model.SortedKeys(c.coord) {
		if c.coord[t] != m.To || c.finished[t] {
			continue
		}
		for x := range c.granted[t] {
			if c.router.Shard(x) == m.From {
				held[t] = append(held[t], x)
			}
		}
	}
	c.bus.Send(mnet.Message{Kind: mnet.SyncReply, From: m.To, To: m.From, Held: held})
}

// onSyncReply re-installs a peer coordinator's surviving lock claims into
// the rejoined shard's empty table. Claims are exclusive by construction
// (they were granted locks), so re-acquisition cannot conflict; anything
// the coordinator released or aborted meanwhile fails the live-state check
// and is skipped.
func (c *SimControl) onSyncReply(n *simNode, m mnet.Message) {
	for _, t := range model.SortedKeys(m.Held) {
		if c.coord[t] != m.From || c.finished[t] {
			continue
		}
		g := c.granted[t]
		for _, x := range m.Held[t] {
			if g[x] && c.router.Shard(x) == n.id {
				n.locks.TryAcquire(t, x)
			}
		}
	}
	if n.syncNeed != nil {
		delete(n.syncNeed, m.From)
	}
	if n.recovering && len(n.syncNeed) == 0 {
		n.recovering = false
		c.grantPass(n)
	}
}
