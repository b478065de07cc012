// SimControl is the simulator-facing face of the partitioned store: a
// sched.Control in which each shard's lock table lives at its own processor
// of a simulated message bus (internal/net). Lock requests, grants, and
// per-shot commit votes travel as typed messages; the robustness machinery —
// epoch fencing, retransmission with capped backoff, heartbeat failure
// detection, grace-period escalation, anti-entropy lock resync after a
// crash, and edge-chasing deadlock probes — mirrors internal/dist, so the
// sharded engine survives the same partition/crash chaos grid (E18).
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
	"sort"

	"mla/internal/coherent"
	"mla/internal/dist"
	"mla/internal/fault"
	"mla/internal/lock"
	"mla/internal/model"
	mnet "mla/internal/net"
	"mla/internal/nest"
	"mla/internal/sched"
)

// SimParams configures the simulator-side sharded control. Zero timer
// fields get the dist-style defaults derived from Delay, so both
// message-driven layers trip failure detection identically.
type SimParams struct {
	// Shards is the shard count; one bus processor per shard.
	Shards int
	// Delay is the bus's one-hop message latency in simulator units.
	Delay int64

	HeartbeatEvery  int64
	SuspectAfter    int64
	Grace           int64
	RetransmitEvery int64
	ProbeAfter      int64
	ProbeEvery      int64

	// Faults supplies per-message drop/delay verdicts and the scheduled
	// partition/crash chaos. Nil means a reliable, failure-free network.
	Faults *fault.Injector
	// NetPolicy, when non-nil, overrides Faults for per-message verdicts.
	NetPolicy mnet.Policy

	// Nest supplies the workload's multilevel nesting. When set, every
	// grant additionally passes the Section 6 delay rule over the online
	// coherent closure: locks released at a shot boundary reopen the
	// entity only to transactions whose pair level tolerates that
	// boundary's coarseness — an audit that must see transfers atomically
	// (level 1) still waits even though the lock plane would grant. Nil
	// disables the gate (protocol unit tests that never check histories).
	Nest *nest.Nest
}

func (pr SimParams) withDefaults() SimParams {
	if pr.Shards < 1 {
		pr.Shards = 1
	}
	if pr.HeartbeatEvery == 0 {
		pr.HeartbeatEvery = dist.DefaultHeartbeatEvery
	}
	if pr.SuspectAfter == 0 {
		pr.SuspectAfter = pr.Delay + 3*pr.HeartbeatEvery
	}
	if pr.Grace == 0 {
		pr.Grace = 2 * pr.SuspectAfter
	}
	if pr.RetransmitEvery == 0 {
		pr.RetransmitEvery = 2*pr.Delay + pr.HeartbeatEvery
	}
	if pr.ProbeAfter == 0 {
		pr.ProbeAfter = 2*pr.Delay + pr.HeartbeatEvery
	}
	if pr.ProbeEvery == 0 {
		pr.ProbeEvery = pr.ProbeAfter
	}
	return pr
}

// simWait is one blocked request recorded at the shard that owns the
// requested entity — the coordinator's own wait for local entities, a
// remote transaction's queued LockRequest otherwise.
type simWait struct {
	entity    model.EntityID
	seq       int
	epoch     int
	since     int64
	nextProbe int64
	// strandedSince is when every path forward started depending on a
	// suspected processor; 0 while reachable.
	strandedSince int64
	blockers      map[model.TxnID]bool
}

// simNode is one shard processor: the hard lock state for its slice of the
// entity space plus the volatile protocol soft state. A crash wipes
// everything here; the lock table is rebuilt by anti-entropy on rejoin.
type simNode struct {
	id int
	up bool

	locks   *lock.Manager
	waiting map[model.TxnID]*simWait
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

	// Failure detector.
	lastSeen  []int64
	suspected []bool
	nextHb    int64

	// Probe dedup: (initiator, target) pairs recently chased, with expiry.
	seen map[chaseKey]int64
}

type chaseKey struct {
	init   model.TxnID
	target model.TxnID
}

func newSimNode(id, shards int) *simNode {
	n := &simNode{id: id, up: true}
	n.reset(shards)
	return n
}

// reset zeroes all per-node state (crash, and initial construction).
func (n *simNode) reset(shards int) {
	n.locks = lock.NewManager()
	n.waiting = make(map[model.TxnID]*simWait)
	n.shotDone = make(map[model.TxnID]int)
	n.lastSeen = make([]int64, shards)
	n.suspected = make([]bool, shards)
	n.seen = make(map[chaseKey]int64)
	n.nextHb = 0
	n.recovering = false
	n.syncNeed = nil
}

// reqRec is one outstanding remote lock request, owned by the coordinator
// and retransmitted with capped backoff until the grant arrives.
type reqRec struct {
	entity   model.EntityID
	shard    int
	seq      int
	since    int64
	tries    int
	nextSend int64
}

// shotRec is one in-flight shot round: the participants still owing votes,
// and the full remote-participant set so the coordinator can stop believing
// the released grants once the shot commits.
type shotRec struct {
	shot     int
	need     map[int]bool
	parts    map[int]bool
	since    int64
	tries    int
	nextSend int64
}

type simStrand struct {
	proc  int
	since int64
}

type simChaos struct {
	at    int64
	apply func()
}

// SimControl is the sharded concurrency control the simulator drives
// through sched.Control, sched.Ticker, sched.Waker, and sched.AsyncAborter.
type SimControl struct {
	params SimParams
	shards int
	router *Router

	// Multilevel admission gate (nil when SimParams.Nest is nil): the
	// same online coherent closure sched.Preventer grants through. The
	// lock/shot plane owns distribution — who holds what, where, through
	// which failures — while the closure is the ground-truth conflict
	// oracle that keeps early release at shot boundaries sound.
	nest *nest.Nest
	oc   *coherent.Online

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
	stranded    map[model.TxnID]*simStrand
	waitSite    map[model.TxnID]int // shard holding t's wait record
	finished    map[model.TxnID]bool
	crossed     map[model.TxnID]bool
	victims     map[model.TxnID]bool // asynchronous abort queue

	chaos    []simChaos
	chaosIdx int

	now   int64
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
	pr = pr.withDefaults()
	c := &SimControl{
		params:      pr,
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
		stranded:    make(map[model.TxnID]*simStrand),
		waitSite:    make(map[model.TxnID]int),
		finished:    make(map[model.TxnID]bool),
		crossed:     make(map[model.TxnID]bool),
		victims:     make(map[model.TxnID]bool),
	}
	if pr.Nest != nil {
		c.nest = pr.Nest
		// Never sealed (no Retired hook): with delayed announcements
		// "committed ⇒ no step of t will arrive later" is not yet established.
		c.oc = coherent.NewOnline(pr.Nest.K(), pr.Nest.Level)
	}
	pol := pr.NetPolicy
	if pol == nil && pr.Faults != nil {
		inj := pr.Faults
		pol = func(m mnet.Message) (bool, int64) { return inj.Net(m.Kind.String()) }
	}
	c.bus = mnet.New(pr.Shards, pr.Delay, pol)
	c.bus.OnDeliver(c.receive)
	c.nodes = make([]*simNode, pr.Shards)
	for i := range c.nodes {
		c.nodes[i] = newSimNode(i, pr.Shards)
	}
	c.buildChaos()
	return c
}

// Name implements sched.Control.
func (c *SimControl) Name() string { return fmt.Sprintf("shard/s=%d", c.shards) }

// Router returns the entity→shard assignment the control decides with.
func (c *SimControl) Router() *Router { return c.router }

// NetStats returns the bus traffic counters.
func (c *SimControl) NetStats() mnet.Stats { return c.bus.Stats() }

// Stats implements sched.Control.
func (c *SimControl) Stats() *sched.Stats { return &c.stats }

// DeadlineAborted implements the sched.DeadlineAborter capability.
func (c *SimControl) DeadlineAborted(model.TxnID) { c.stats.Deadlines++ }

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
	delete(c.stranded, t)
	delete(c.finished, t)
	delete(c.crossed, t)
	delete(c.victims, t)
	c.clearWait(t)
	for _, n := range c.nodes {
		delete(n.waiting, t)
		delete(n.shotDone, t)
		for _, w := range n.waiting {
			delete(w.blockers, t)
		}
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
	c.stats.Requests++
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
			n := c.nodes[co]
			w := c.setWait(n, t, x, seq)
			w.blockers = blk
			if cycle := c.localCycle(n, t); len(cycle) > 0 {
				victim := c.youngest(cycle)
				c.clearWait(t)
				if victim != t {
					c.stats.Wounds++
				}
				return sched.Decision{Kind: sched.Abort, Victims: []model.TxnID{victim}}
			}
			c.stats.Waits++
			return sched.Decision{Kind: sched.Wait}
		}
	}
	node := c.nodes[s]
	if s == co {
		delete(c.stranded, t)
		if node.recovering {
			c.stats.Waits++
			return sched.Decision{Kind: sched.Wait}
		}
		ok, holder := node.locks.TryAcquire(t, x)
		if ok {
			c.clearWait(t)
			c.stats.Grants++
			return sched.Decision{Kind: sched.Grant}
		}
		w := c.setWait(node, t, x, seq)
		w.blockers = map[model.TxnID]bool{holder: true}
		if cycle := c.localCycle(node, t); len(cycle) > 0 {
			victim := c.youngest(cycle)
			c.clearWait(t)
			if victim != t {
				c.stats.Wounds++
			}
			return sched.Decision{Kind: sched.Abort, Victims: []model.TxnID{victim}}
		}
		c.stats.Waits++
		return sched.Decision{Kind: sched.Wait}
	}
	// Remote shard: the coordinator's own grant record is authoritative —
	// if the shard crashed since, anti-entropy re-installs the lock before
	// the rejoined shard grants anything conflicting.
	if c.granted[t][x] {
		delete(c.stranded, t)
		c.clearWait(t)
		c.stats.Grants++
		return sched.Decision{Kind: sched.Grant}
	}
	if !node.up {
		return c.strand(t, s)
	}
	delete(c.stranded, t)
	pr := c.pendingReq[t]
	if pr == nil || pr.entity != x {
		c.clearWait(t)
		pr = &reqRec{entity: x, shard: s, seq: seq, since: c.now, nextSend: c.now}
		c.pendingReq[t] = pr
		c.sendLockReq(t, pr)
	}
	c.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}

// closureBlockers previews the coherent-closure predecessors of t's
// would-be step on x and returns the open ones whose segment is not yet
// closed at the pair level — exactly sched.Preventer's delay rule.
func (c *SimControl) closureBlockers(t model.TxnID, x model.EntityID) map[model.TxnID]bool {
	var blk map[model.TxnID]bool
	c.oc.ForEachPredOfNewStep(t, x, func(u model.TxnID, s int) {
		if u == t || c.finished[u] {
			return
		}
		if !c.oc.SegmentClosedAfter(u, s, c.nest.Level(u, t)) {
			if blk == nil {
				blk = make(map[model.TxnID]bool)
			}
			blk[u] = true
		}
	})
	return blk
}

func (c *SimControl) strand(t model.TxnID, proc int) sched.Decision {
	if st := c.stranded[t]; st == nil {
		c.stranded[t] = &simStrand{proc: proc, since: c.now}
	} else {
		st.proc = proc
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
	sr := &shotRec{shot: c.shotIdx[t], need: need, parts: parts, since: c.now, nextSend: c.now}
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
	delete(c.stranded, t)
	delete(c.coord, t)
	delete(c.granted, t)
	delete(c.unitParts, t)
	delete(c.shotIdx, t)
	delete(c.crossed, t)
	c.clearWait(t)
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
	c.stats.Aborts += len(victims)
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
func (c *SimControl) TakeVictims() []model.TxnID {
	if len(c.victims) == 0 {
		return nil
	}
	out := make([]model.TxnID, 0, len(c.victims))
	for t := range c.victims {
		if c.finished[t] {
			continue
		}
		out = append(out, t)
	}
	c.victims = make(map[model.TxnID]bool)
	model.SortTxnIDs(out)
	return out
}

func (c *SimControl) enqueueVictim(t model.TxnID) {
	if _, began := c.prio[t]; !began || c.finished[t] {
		return
	}
	c.victims[t] = true
}

func (c *SimControl) prioOf(t model.TxnID) int64 {
	if pr, ok := c.prio[t]; ok {
		return pr
	}
	return -1
}

// youngest picks the abort victim from a cycle: highest priority value
// (youngest), ties broken toward the larger ID — the same rule as dist.
func (c *SimControl) youngest(cycle []model.TxnID) model.TxnID {
	victim := cycle[0]
	best := c.prioOf(victim)
	for _, u := range cycle[1:] {
		if pr := c.prioOf(u); pr > best || (pr == best && u > victim) {
			victim, best = u, pr
		}
	}
	return victim
}

// setWait installs (or refreshes) t's wait record at node n.
func (c *SimControl) setWait(n *simNode, t model.TxnID, x model.EntityID, seq int) *simWait {
	if w := n.waiting[t]; w != nil && w.entity == x && w.epoch == c.epoch[t] {
		w.seq = seq
		return w
	}
	c.clearWait(t)
	w := &simWait{
		entity: x, seq: seq, epoch: c.epoch[t],
		since: c.now, nextProbe: c.now + c.params.ProbeAfter,
	}
	n.waiting[t] = w
	c.waitSite[t] = n.id
	return w
}

// clearWait drops t's wait record wherever it is held.
func (c *SimControl) clearWait(t model.TxnID) {
	if q, ok := c.waitSite[t]; ok {
		delete(c.nodes[q].waiting, t)
		delete(c.waitSite, t)
	}
}

// grantPass retries every wait queued at a node after its lock table
// changed. Remote waiters are granted by message; local waiters only get
// their blocker sets refreshed — the simulator re-offers their Request,
// which acquires directly.
func (c *SimControl) grantPass(n *simNode) {
	if n.recovering {
		return
	}
	for _, t := range sortedTxnKeys(n.waiting) {
		w := n.waiting[t]
		if w.epoch != c.epoch[t] || c.finished[t] {
			delete(n.waiting, t)
			if c.waitSite[t] == n.id {
				delete(c.waitSite, t)
			}
			continue
		}
		if c.coord[t] == n.id {
			if h := n.locks.HolderOf(w.entity); h == "" || h == t {
				w.blockers = nil
			}
			continue
		}
		ok, holder := n.locks.TryAcquire(t, w.entity)
		if !ok {
			w.blockers = map[model.TxnID]bool{holder: true}
			continue
		}
		delete(n.waiting, t)
		delete(c.waitSite, t)
		c.bus.Send(mnet.Message{
			Kind: mnet.LockGrant, From: n.id, To: c.coord[t],
			Txn: t, Epoch: w.epoch, Entity: w.entity,
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
	if pr.tries > 0 {
		c.Retransmits++
	}
	pr.tries++
	shift := pr.tries - 1
	if shift > 4 {
		shift = 4
	}
	pr.nextSend = c.now + c.params.RetransmitEvery<<uint(shift)
}

// sendShot transmits ShotPrepare to every participant still owing a vote.
func (c *SimControl) sendShot(t model.TxnID, sr *shotRec) {
	co := c.coord[t]
	for _, q := range sortedIntKeys(sr.need) {
		c.bus.Send(mnet.Message{
			Kind: mnet.ShotPrepare, From: co, To: q,
			Txn: t, Epoch: c.epoch[t], Shot: sr.shot,
		})
		if sr.tries > 0 {
			c.Retransmits++
		}
	}
	sr.tries++
	shift := sr.tries - 1
	if shift > 4 {
		shift = 4
	}
	sr.nextSend = c.now + c.params.RetransmitEvery<<uint(shift)
}

// localCycle is a DFS over the waits-for edges recorded at one shard
// (deterministic order). Cycles spanning shards have no single holder of
// all their edges; those are found by probes.
func (c *SimControl) localCycle(n *simNode, t model.TxnID) []model.TxnID {
	var path []model.TxnID
	onPath := map[model.TxnID]bool{}
	visited := map[model.TxnID]bool{}
	var dfs func(u model.TxnID) []model.TxnID
	dfs = func(u model.TxnID) []model.TxnID {
		if onPath[u] {
			for i, w := range path {
				if w == u {
					return append([]model.TxnID(nil), path[i:]...)
				}
			}
			return path
		}
		if visited[u] {
			return nil
		}
		visited[u] = true
		onPath[u] = true
		path = append(path, u)
		if w := n.waiting[u]; w != nil {
			for _, v := range sortedTxnKeys(w.blockers) {
				if cyc := dfs(v); cyc != nil {
					return cyc
				}
			}
		}
		onPath[u] = false
		path = path[:len(path)-1]
		return nil
	}
	return dfs(t)
}

// ---- clock, chaos, and periodic machinery ----

// buildChaos translates the fault plan's partition and processor-crash
// schedules into a sorted event list applied on the simulated clock.
func (c *SimControl) buildChaos() {
	if c.params.Faults == nil {
		return
	}
	plan := c.params.Faults.Plan()
	for i, part := range plan.Partitions {
		name := part.Name
		if name == "" {
			name = "partition"
		}
		sides := part.Sides
		if len(sides) == 0 {
			var a, b []int
			for q := 0; q < c.shards; q++ {
				if q < (c.shards+1)/2 {
					a = append(a, q)
				} else {
					b = append(b, q)
				}
			}
			sides = [][]int{a, b}
		}
		key := name
		if i > 0 {
			key = name + string(rune('a'+i%26))
		}
		c.chaos = append(c.chaos, simChaos{at: part.At, apply: func() { c.bus.Partition(key, sides...) }})
		if part.Heal > 0 {
			c.chaos = append(c.chaos, simChaos{at: part.Heal, apply: func() { c.bus.Heal(key) }})
		}
	}
	for _, cr := range plan.ProcCrashes {
		q := cr.Proc % c.shards
		c.chaos = append(c.chaos, simChaos{at: cr.At, apply: func() { c.crashProc(q) }})
		if cr.Rejoin > 0 {
			c.chaos = append(c.chaos, simChaos{at: cr.Rejoin, apply: func() { c.rejoinProc(q) }})
		}
	}
	sort.SliceStable(c.chaos, func(i, j int) bool { return c.chaos[i].at < c.chaos[j].at })
}

// Tick implements sched.Ticker: advance the clock, apply due chaos,
// deliver matured messages, and run every shard's periodic machinery.
func (c *SimControl) Tick(now int64) {
	if now < c.now {
		return
	}
	c.now = now
	for c.chaosIdx < len(c.chaos) && c.chaos[c.chaosIdx].at <= now {
		c.chaos[c.chaosIdx].apply()
		c.chaosIdx++
	}
	c.bus.Tick(now)
	if c.shards > 1 {
		for _, n := range c.nodes {
			if n.up {
				c.heartbeat(n)
			}
		}
		c.recoverySweep()
		c.retransmit()
		c.probeSweep()
	}
	c.graceSweep()
}

// NextWake implements sched.Waker: the earliest instant any timer or
// in-flight message needs a Tick.
func (c *SimControl) NextWake(int64) int64 {
	var next int64
	earlier := func(at int64) {
		if at > 0 && (next == 0 || at < next) {
			next = at
		}
	}
	if c.chaosIdx < len(c.chaos) {
		earlier(c.chaos[c.chaosIdx].at)
	}
	earlier(c.bus.NextDelivery())
	if c.shards > 1 {
		for _, n := range c.nodes {
			if n.up {
				earlier(n.nextHb)
			}
			if n.recovering {
				earlier(n.recoverBy)
			}
		}
		for _, pr := range c.pendingReq {
			earlier(pr.nextSend)
		}
		for _, sr := range c.pendingShot {
			earlier(sr.nextSend)
		}
	}
	return next
}

// heartbeat broadcasts liveness on schedule and turns prolonged silence
// into suspicion.
func (c *SimControl) heartbeat(n *simNode) {
	if c.now >= n.nextHb {
		n.nextHb = c.now + c.params.HeartbeatEvery
		c.bus.Broadcast(mnet.Message{Kind: mnet.Heartbeat, From: n.id})
	}
	for q := 0; q < c.shards; q++ {
		if q == n.id || n.suspected[q] {
			continue
		}
		if c.now-n.lastSeen[q] > c.params.SuspectAfter {
			n.suspected[q] = true
		}
	}
}

// recoverySweep ends anti-entropy recovery at its deadline even when some
// peers never replied (they may have crashed too): waiting forever would
// trade a bounded resync window for unavailability.
func (c *SimControl) recoverySweep() {
	for _, n := range c.nodes {
		if n.up && n.recovering && c.now >= n.recoverBy {
			n.recovering = false
			c.grantPass(n)
		}
	}
}

// retransmit resends outstanding lock requests and shot rounds whose
// backoff expired. A sender whose coordinator shard is down stays quiet —
// the crash already queued the transaction for abort.
func (c *SimControl) retransmit() {
	for _, t := range sortedTxnKeys(c.pendingReq) {
		pr := c.pendingReq[t]
		if co, ok := c.coord[t]; !ok || !c.nodes[co].up || c.now < pr.nextSend {
			continue
		}
		c.sendLockReq(t, pr)
	}
	for _, t := range sortedTxnKeys(c.pendingShot) {
		sr := c.pendingShot[t]
		if co, ok := c.coord[t]; !ok || !c.nodes[co].up || c.now < sr.nextSend {
			continue
		}
		c.sendShot(t, sr)
	}
}

// probeSweep starts (and periodically restarts) edge-chasing probes for
// requests blocked past ProbeAfter. Probes are unreliable messages;
// re-probing makes detection survive loss.
func (c *SimControl) probeSweep() {
	for _, n := range c.nodes {
		if !n.up {
			continue
		}
		for _, t := range sortedTxnKeys(n.waiting) {
			w := n.waiting[t]
			if w.epoch != c.epoch[t] {
				continue
			}
			if c.now-w.since < c.params.ProbeAfter || c.now < w.nextProbe {
				continue
			}
			w.nextProbe = c.now + c.params.ProbeEvery
			for _, u := range sortedTxnKeys(w.blockers) {
				c.sendProbe(n.id, t, c.epoch[t], u, t, c.prioOf(t))
			}
		}
	}
}

// sendProbe routes a probe to the shard holding target's wait record; a
// local target is chased inline without touching the bus.
func (c *SimControl) sendProbe(from int, init model.TxnID, initEpoch int, target, victim model.TxnID, victimPrio int64) {
	dst, ok := c.waitSite[target]
	if !ok {
		return // target is not blocked: no deadlock via this edge
	}
	m := mnet.Message{
		Kind: mnet.Probe, From: from, To: dst,
		Txn: target, Epoch: c.epoch[target],
		Init: init, InitEpoch: initEpoch,
		Victim: victim, VictimPrio: victimPrio,
	}
	if dst == from {
		c.onProbe(m)
		return
	}
	c.bus.Send(m)
}

// graceSweep aborts transactions that cannot make progress because of an
// unreachable shard, once the grace period expires: requests stranded at a
// crashed processor, lock requests and shot rounds addressed to dead or
// suspected participants, and waiters whose blockers are coordinated by an
// unreachable peer.
func (c *SimControl) graceSweep() {
	for _, t := range sortedTxnKeys(c.stranded) {
		st := c.stranded[t]
		if c.nodes[st.proc].up {
			delete(c.stranded, t) // re-offer will re-decide at the live shard
			continue
		}
		if c.now-st.since > c.params.Grace {
			c.GraceAborts++
			c.enqueueVictim(t)
			delete(c.stranded, t)
		}
	}
	if c.shards == 1 {
		return
	}
	for _, t := range sortedTxnKeys(c.pendingReq) {
		pr := c.pendingReq[t]
		co, ok := c.coord[t]
		if !ok || !c.nodes[co].up {
			continue // the coordinator crash already queued the abort
		}
		cn := c.nodes[co]
		if c.nodes[pr.shard].up && !cn.suspected[pr.shard] {
			continue
		}
		if c.now-pr.since > c.params.Grace {
			c.GraceAborts++
			c.enqueueVictim(t)
			pr.since = c.now // don't re-fire while the abort drains
		}
	}
	for _, t := range sortedTxnKeys(c.pendingShot) {
		sr := c.pendingShot[t]
		co, ok := c.coord[t]
		if !ok || !c.nodes[co].up {
			continue
		}
		cn := c.nodes[co]
		unreachable := false
		for q := range sr.need {
			if !c.nodes[q].up || cn.suspected[q] {
				unreachable = true
				break
			}
		}
		if !unreachable {
			continue
		}
		if c.now-sr.since > c.params.Grace {
			c.GraceAborts++
			c.enqueueVictim(t)
			sr.since = c.now
		}
	}
	for _, n := range c.nodes {
		if !n.up {
			continue
		}
		for _, t := range sortedTxnKeys(n.waiting) {
			w := n.waiting[t]
			unreachable := false
			for u := range w.blockers {
				cu, ok := c.coord[u]
				if !ok || cu == n.id {
					continue
				}
				if n.suspected[cu] || !c.nodes[cu].up {
					unreachable = true
					break
				}
			}
			if !unreachable {
				w.strandedSince = 0
				continue
			}
			if w.strandedSince == 0 {
				w.strandedSince = c.now
				continue
			}
			if c.now-w.strandedSince > c.params.Grace {
				c.GraceAborts++
				c.enqueueVictim(t)
				w.strandedSince = c.now
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
	n.reset(c.shards)
	n.up = false
	c.bus.Crash(q)
	for _, t := range sortedTxnKeys(c.waitSite) {
		if c.waitSite[t] == q {
			delete(c.waitSite, t)
		}
	}
	for _, t := range sortedTxnKeys(c.coord) {
		if c.coord[t] == q && !c.finished[t] {
			c.CrashAborts++
			c.enqueueVictim(t)
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
	for i := range n.lastSeen {
		n.lastSeen[i] = c.now
		n.suspected[i] = false
	}
	n.nextHb = c.now
	c.bus.Restart(q)
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
		n.recoverBy = c.now + c.params.SuspectAfter
	}
	c.bus.Broadcast(mnet.Message{Kind: mnet.SyncRequest, From: q})
	// Re-arm every sender that was waiting out q's downtime.
	for _, t := range sortedTxnKeys(c.pendingReq) {
		if pr := c.pendingReq[t]; pr.shard == q {
			pr.tries = 0
			pr.nextSend = c.now
		}
	}
	for _, t := range sortedTxnKeys(c.pendingShot) {
		if sr := c.pendingShot[t]; sr.need[q] {
			sr.tries = 0
			sr.nextSend = c.now
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
	n.lastSeen[m.From] = c.now
	n.suspected[m.From] = false
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
		c.onProbe(m)
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
		c.setWait(n, m.Txn, m.Entity, 0)
		return
	}
	ok, holder := n.locks.TryAcquire(m.Txn, m.Entity)
	if ok {
		if q, have := c.waitSite[m.Txn]; have && q == n.id {
			delete(n.waiting, m.Txn)
			delete(c.waitSite, m.Txn)
		}
		c.bus.Send(mnet.Message{
			Kind: mnet.LockGrant, From: m.To, To: m.From,
			Txn: m.Txn, Epoch: m.Epoch, Entity: m.Entity,
		})
		return
	}
	w := c.setWait(n, m.Txn, m.Entity, 0)
	w.blockers = map[model.TxnID]bool{holder: true}
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

// onProbe is one hop of the edge chase: if the probed transaction is
// waiting here, the probe forwards along its waits-for edge, keeping the
// youngest transaction seen; reaching the initiator closes a cycle and the
// carried victim is aborted.
func (c *SimControl) onProbe(m mnet.Message) {
	n := c.nodes[m.To]
	if !n.up || m.Epoch != c.epoch[m.Txn] || m.InitEpoch != c.epoch[m.Init] {
		return
	}
	w := n.waiting[m.Txn]
	if w == nil || w.epoch != m.Epoch {
		return // not blocked here: the chase dies
	}
	key := chaseKey{init: m.Init, target: m.Txn}
	if exp, ok := n.seen[key]; ok && c.now < exp {
		return
	}
	if len(n.seen) > 1024 {
		for k, exp := range n.seen {
			if c.now >= exp {
				delete(n.seen, k)
			}
		}
	}
	n.seen[key] = c.now + c.params.ProbeEvery
	victim, vprio := m.Victim, m.VictimPrio
	if pr := c.prioOf(m.Txn); pr > vprio || (pr == vprio && m.Txn > victim) {
		victim, vprio = m.Txn, pr
	}
	for _, u := range sortedTxnKeys(w.blockers) {
		if u == m.Init {
			if !c.victims[victim] && !c.finished[victim] {
				c.ProbeDeadlocks++
				c.enqueueVictim(victim)
			}
			continue
		}
		c.sendProbe(m.To, m.Init, m.InitEpoch, u, victim, vprio)
	}
}

// onSyncRequest answers anti-entropy: the replying shard reports, for every
// transaction it coordinates, the locks it believes granted at the
// requester. The claims are re-validated against the coordinator's live
// state at delivery, which fences shots and aborts that landed while the
// reply was in flight.
func (c *SimControl) onSyncRequest(m mnet.Message) {
	held := make(map[model.TxnID][]model.EntityID)
	for _, t := range sortedTxnKeys(c.coord) {
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
	for _, t := range sortedTxnKeys(m.Held) {
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

// sortedTxnKeys returns the map's keys in sorted order (deterministic
// iteration for anything that sends messages or makes decisions).
func sortedTxnKeys[V any](m map[model.TxnID]V) []model.TxnID {
	out := make([]model.TxnID, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	model.SortTxnIDs(out)
	return out
}

func sortedIntKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}
