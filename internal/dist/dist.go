// Package dist implements a distributed variant of the Section 6
// cycle-prevention control. The paper's setting is explicitly distributed —
// entities live at processors of a network and transactions migrate between
// them — so a realistic prevention scheduler cannot consult a global,
// instantaneous picture of every transaction's breakpoint positions.
//
// The control is structured as per-processor replicas connected by a real
// (simulated) message bus (internal/net):
//
//   - The dependency structure (which steps precede which in the coherent
//     closure) is derived from entity access orders and migration, and is
//     maintained exactly — conceptually the control plane that the
//     migrating transactions themselves carry from processor to processor,
//     along with their priorities and incarnation epochs.
//   - Breakpoint positions and completions of *remote* transactions are
//     data-plane soft state: each replica holds only its own view table,
//     learned from boundary and finish messages on the bus, and decides
//     with it. A processor crash loses this soft state entirely; the
//     replica rebuilds it by anti-entropy resync when it rejoins.
//
// Staleness is safe by construction: the delay rule's wait condition is
// monotone in the announced boundary position, so a stale view can only
// under-report boundaries and make the scheduler wait longer — never admit
// an execution the fresh-view scheduler would reject. Every message the
// replicas exchange preserves that monotonicity (bounds merge by max,
// finishes are terminal, epochs fence incarnations so rollback-invalidated
// progress cannot resurrect), which is why arbitrary loss, delay,
// reordering, partitions, and crashes cost only waits and aborts, never
// wrong admissions. The StaleWaits counter measures the cost (waits a
// zero-delay view would have granted); experiments E13 and E18 sweep the
// delay and the failure space.
//
// Robustness machinery, all replica-local and message-driven:
//
//   - Finish announcements, which strand remote waiters if lost, are
//     delivered by retransmission with capped exponential backoff until
//     each peer acknowledges; anti-entropy resync covers peers that were
//     crashed or partitioned through every retransmission.
//   - A heartbeat failure detector makes each replica suspect silent
//     peers; once a waiter has been blocked on a transaction sited at a
//     suspected (or crashed) processor for longer than the grace period,
//     the waiter is aborted — partitions cost aborts, never eternal hangs.
//   - Deadlocks local to one processor are caught synchronously; cycles
//     spanning processors are found by edge-chasing probes forwarded along
//     waits-for edges, with no global graph anywhere — detection survives
//     the loss of any single node.
package dist

import (
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/coherent"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/nest"
	mnet "mla/internal/net"
	"mla/internal/sched"
	"mla/internal/telemetry"
)

// Params configures the distributed control. Zero timer fields get
// defaults derived from Delay so larger announcement latencies do not
// trip the failure detector spuriously.
type Params struct {
	Procs int
	Owner func(model.EntityID) int
	// Delay is the bus's one-hop message latency in simulator units.
	Delay int64

	// HeartbeatEvery is the failure detector's broadcast period.
	HeartbeatEvery int64
	// SuspectAfter is how long a peer may stay silent before it is
	// suspected. Must exceed Delay + HeartbeatEvery or live peers flap.
	SuspectAfter int64
	// Grace is how long a waiter may stay blocked on a transaction sited
	// at a suspected or crashed processor before it is aborted.
	Grace int64
	// RetransmitEvery is the base finish-retransmission period; the
	// backoff doubles per round, capped at 16x.
	RetransmitEvery int64
	// ProbeAfter is how long a request waits before its replica starts
	// edge-chasing deadlock probes for it.
	ProbeAfter int64
	// ProbeEvery is the re-probe period (probes are unreliable messages;
	// re-probing makes detection survive loss).
	ProbeEvery int64

	// Faults supplies per-message drop/delay verdicts and the scheduled
	// partition and processor-crash chaos (fault.Plan.Partitions,
	// fault.Plan.ProcCrashes). Nil means a reliable, failure-free network.
	Faults *fault.Injector
	// NetPolicy, when non-nil, overrides Faults for per-message verdicts.
	// Test seam for scripting exact message fates.
	NetPolicy mnet.Policy
}

// DefaultHeartbeatEvery is the failure detector's default broadcast period,
// exported so internal/shard's simulator control derives its suspicion and
// grace timers from the same base and the two message-driven layers trip
// failure detection identically on the same chaos grid.
const DefaultHeartbeatEvery int64 = 20

func (pr Params) withDefaults() Params {
	if pr.HeartbeatEvery == 0 {
		pr.HeartbeatEvery = DefaultHeartbeatEvery
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

// Preventer is the distributed prevention control: a facade over
// per-processor replicas that the simulator drives through sched.Control,
// sched.Ticker (clock), sched.Waker (protocol timers), and
// sched.AsyncAborter (probe- and failure-detector-initiated aborts).
type Preventer struct {
	nest   *nest.Nest
	spec   breakpoint.Spec
	k      int
	params Params
	owner  func(model.EntityID) int
	procs  int

	bus  *mnet.Bus
	reps []*replica

	// Control plane, carried by the migrating transactions themselves:
	// the exact closure, priorities, incarnation epochs, and the processor
	// each transaction currently sits at.
	oc       *coherent.Online
	prio     map[model.TxnID]int64
	epoch    map[model.TxnID]int
	site     map[model.TxnID]int
	waitSite map[model.TxnID]int // processor holding t's wait record

	// finishedTruth is the zero-delay ground truth (staleness attribution
	// and victim filtering only — replicas never consult it to decide).
	finishedTruth map[model.TxnID]bool
	// retiredAll marks finishes acknowledged by every processor: the
	// durable commit-log fact any replica may rely on after pruning its
	// soft state. Monotone while the transaction stays finished; cleared
	// if a cascade rolls the finished transaction back.
	retiredAll map[model.TxnID]bool

	// pendingFinish is the finish-retransmission daemon's state, acting
	// for the transaction's durable commit coordinator at its origin.
	pendingFinish map[model.TxnID]*finRec

	// stranded tracks requests addressed to a crashed processor: the step
	// cannot even be decided there, and after Grace the waiter aborts.
	stranded map[model.TxnID]*strandRec

	victims map[model.TxnID]bool // asynchronous abort queue

	chaos    []chaosEvent
	chaosIdx int

	now   int64
	stats sched.Stats

	StaleWaits     int // waits a zero-delay view would have granted
	GraceAborts    int // waiters aborted after the unreachability grace period
	CrashAborts    int // transactions lost with their crashed processor
	ProbeDeadlocks int // deadlock cycles closed by edge-chasing probes
	Retransmits    int // finish retransmissions beyond the first round
}

type finRec struct {
	origin   int
	epoch    int
	need     map[int]bool // peers that have not acknowledged yet
	tries    int
	nextSend int64
}

type strandRec struct {
	proc  int
	since int64
}

// New creates the distributed control over a reliable, failure-free
// network. owner maps entities to processors [0, procs); delay is the
// one-hop message latency.
func New(n *nest.Nest, spec breakpoint.Spec, procs int, owner func(model.EntityID) int, delay int64) *Preventer {
	return NewNet(n, spec, Params{Procs: procs, Owner: owner, Delay: delay})
}

// NewNet creates the distributed control with full network, failure, and
// chaos configuration.
func NewNet(n *nest.Nest, spec breakpoint.Spec, pr Params) *Preventer {
	if n.K() != spec.K() {
		panic("dist: nest and breakpoint spec disagree on k")
	}
	if pr.Procs < 1 {
		panic("dist: need at least one processor")
	}
	if pr.Owner == nil {
		panic("dist: need an entity owner function")
	}
	pr = pr.withDefaults()
	p := &Preventer{
		nest:          n,
		spec:          spec,
		k:             n.K(),
		params:        pr,
		owner:         pr.Owner,
		procs:         pr.Procs,
		oc:            coherent.NewOnline(n.K(), n.Level),
		prio:          make(map[model.TxnID]int64),
		epoch:         make(map[model.TxnID]int),
		site:          make(map[model.TxnID]int),
		waitSite:      make(map[model.TxnID]int),
		finishedTruth: make(map[model.TxnID]bool),
		retiredAll:    make(map[model.TxnID]bool),
		pendingFinish: make(map[model.TxnID]*finRec),
		stranded:      make(map[model.TxnID]*strandRec),
		victims:       make(map[model.TxnID]bool),
	}
	pol := pr.NetPolicy
	if pol == nil && pr.Faults != nil {
		inj := pr.Faults
		pol = func(m mnet.Message) (bool, int64) { return inj.Net(m.Kind.String()) }
	}
	p.bus = mnet.New(pr.Procs, pr.Delay, pol)
	p.bus.OnDeliver(p.receive)
	p.reps = make([]*replica, pr.Procs)
	for i := range p.reps {
		p.reps[i] = newReplica(i, pr.Procs, p.k)
	}
	p.buildChaos()
	return p
}

// Name implements sched.Control.
func (p *Preventer) Name() string { return fmt.Sprintf("dist-prevent/d=%d", p.params.Delay) }

// NetStats returns the bus traffic counters.
func (p *Preventer) NetStats() mnet.Stats { return p.bus.Stats() }

// AttachTelemetry records one replica-rpc span per bus message into tel
// (see net.Bus.AttachTelemetry). Call before the run. FillTelemetry is the
// matching end-of-run registry fold.
func (p *Preventer) AttachTelemetry(tel *telemetry.Telemetry) { p.bus.AttachTelemetry(tel) }

// FillTelemetry folds the control's end-of-run counters — bus traffic,
// scheduler decisions, and the chaos accounting (stale waits, grace and
// crash aborts, probe deadlocks, retransmits) — into tel's registry under
// the net.* and dist.* names. Repeated runs aggregate.
func (p *Preventer) FillTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	tel.Metrics.ObserveSnapshot("net", p.bus.Snapshot())
	tel.Metrics.ObserveSnapshot("dist", struct {
		StaleWaits, GraceAborts, CrashAborts, ProbeDeadlocks, Retransmits int
	}{p.StaleWaits, p.GraceAborts, p.CrashAborts, p.ProbeDeadlocks, p.Retransmits})
	tel.Metrics.ObserveSnapshot("dist.control", p.Stats().Snapshot())
}

// Begin implements sched.Control. Each (re)start bumps the transaction's
// epoch, fencing every message about the previous incarnation.
func (p *Preventer) Begin(t model.TxnID, prio int64) {
	p.prio[t] = prio
	p.epoch[t]++
	p.forget(t)
}

// forget erases all per-transaction state except priority and epoch.
func (p *Preventer) forget(t model.TxnID) {
	delete(p.finishedTruth, t)
	delete(p.retiredAll, t)
	delete(p.pendingFinish, t)
	delete(p.stranded, t)
	delete(p.victims, t)
	delete(p.site, t)
	p.clearWait(t)
	for _, rep := range p.reps {
		delete(rep.view, t)
		delete(rep.waiting, t)
	}
}

// closedAt: replica rep's (possibly stale, possibly crash-emptied) verdict
// on whether u's step at seq is closed for a level-lv observer.
func (p *Preventer) closedAt(rep *replica, u model.TxnID, seq, lv int) bool {
	if p.retiredAll[u] {
		return true
	}
	v := rep.view[u]
	if v == nil || v.epoch != p.epoch[u] {
		return false // no (current-incarnation) knowledge: assume open
	}
	if v.finished {
		return true
	}
	return v.bound[lv] >= seq
}

// closedTrue is the zero-delay ground truth, used only to attribute waits
// to staleness.
func (p *Preventer) closedTrue(u model.TxnID, seq, lv int) bool {
	if p.finishedTruth[u] || p.retiredAll[u] {
		return true
	}
	return p.oc.SegmentClosedAfter(u, seq, lv)
}

// Request implements sched.Control: the Section 6 delay rule with exact
// closure predecessors but the owner processor's replica-local views. A
// request addressed to a crashed processor strands (and aborts after the
// grace period); deadlock cycles local to the owner processor are caught
// synchronously, cross-processor ones by probes.
func (p *Preventer) Request(t model.TxnID, seq int, x model.EntityID) sched.Decision {
	p.stats.Requests++
	proc := p.owner(x) % p.procs
	p.site[t] = proc
	rep := p.reps[proc]
	if !rep.up {
		if p.stranded[t] == nil {
			p.stranded[t] = &strandRec{proc: proc, since: p.now}
		} else {
			p.stranded[t].proc = proc
		}
		p.stats.Waits++
		return sched.Decision{Kind: sched.Wait}
	}
	delete(p.stranded, t)
	blockers := make(map[model.TxnID]bool)
	stale := true
	p.oc.ForEachPredOfNewStep(t, x, func(u model.TxnID, s int) {
		if u == t {
			return
		}
		lv := p.nest.Level(u, t)
		if !p.closedAt(rep, u, s, lv) {
			blockers[u] = true
			if !p.closedTrue(u, s, lv) {
				stale = false // a fresh view would block too
			}
		}
	})
	if len(blockers) == 0 {
		p.clearWait(t)
		p.stats.Grants++
		return sched.Decision{Kind: sched.Grant}
	}
	if stale {
		p.StaleWaits++
	}
	w := rep.waiting[t]
	if w == nil || w.seq != seq {
		p.clearWait(t)
		w = &waitRec{seq: seq, since: p.now, nextProbe: p.now + p.params.ProbeAfter}
		rep.waiting[t] = w
		p.waitSite[t] = proc
	}
	w.blockers = blockers
	if cycle := p.localCycle(rep, t); len(cycle) > 0 {
		victim := cycle[0]
		best := p.prioOf(victim)
		for _, u := range cycle[1:] {
			if pr := p.prioOf(u); pr > best || (pr == best && u > victim) {
				victim, best = u, pr
			}
		}
		p.clearWait(t)
		if victim != t {
			p.stats.Wounds++
		}
		return sched.Decision{Kind: sched.Abort, Victims: []model.TxnID{victim}}
	}
	p.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}

func (p *Preventer) prioOf(t model.TxnID) int64 {
	if pr, ok := p.prio[t]; ok {
		return pr
	}
	return -1
}

// clearWait drops t's wait record wherever it is held.
func (p *Preventer) clearWait(t model.TxnID) {
	if q, ok := p.waitSite[t]; ok {
		delete(p.reps[q].waiting, t)
		delete(p.waitSite, t)
	}
}

// Performed implements sched.Control: the step enters the exact closure;
// the new boundary vector is merged into the owner replica's view
// immediately and broadcast to every peer as an (unreliable) boundary
// announcement — loss only under-reports progress.
func (p *Preventer) Performed(t model.TxnID, seq int, x model.EntityID, cut int) {
	if !p.oc.AddStep(t, x) {
		panic(fmt.Sprintf("dist: preventer admitted a cyclic step %s on %s", t, x))
	}
	if cut > 0 {
		p.oc.AddCut(t, cut)
	}
	proc := p.owner(x) % p.procs
	p.site[t] = proc
	// Ground-truth boundary vector for the announcement: the latest
	// boundary of coarseness ≤ lv is derivable from the closure — position
	// q is closed for lv iff a boundary ≥ q exists.
	bound := make([]int, p.k+1)
	for lv := 1; lv <= p.k; lv++ {
		for q := seq; q >= 1; q-- {
			if p.oc.SegmentClosedAfter(t, q, lv) {
				bound[lv] = q
				break
			}
		}
	}
	rep := p.reps[proc]
	if !rep.up {
		return // processor died under the step; the announcement dies with it
	}
	v := rep.viewFor(t, p.epoch[t])
	for lv := 1; lv <= p.k; lv++ {
		if bound[lv] > v.bound[lv] {
			v.bound[lv] = bound[lv]
		}
	}
	if p.procs > 1 {
		b := make([]int, p.k+1)
		copy(b, bound)
		p.bus.Broadcast(mnet.Message{Kind: mnet.Boundary, From: proc, Txn: t, Epoch: p.epoch[t], Bound: b})
	}
}

// Finished implements sched.Control. The finish is recorded at the origin
// replica and handed to the retransmission daemon, which resends it with
// capped backoff until every peer acknowledges; only then is the
// transaction's soft state pruned everywhere (retire).
func (p *Preventer) Finished(t model.TxnID) {
	p.finishedTruth[t] = true
	delete(p.stranded, t)
	p.clearWait(t)
	origin, ok := p.site[t]
	if !ok {
		origin = 0
		p.site[t] = 0
	}
	ep := p.epoch[t]
	if rep := p.reps[origin]; rep.up {
		rep.viewFor(t, ep).finished = true
	}
	need := make(map[int]bool, p.procs-1)
	for q := 0; q < p.procs; q++ {
		if q != origin {
			need[q] = true
		}
	}
	if len(need) == 0 {
		p.retire(t)
		return
	}
	fr := &finRec{origin: origin, epoch: ep, need: need, nextSend: p.now}
	p.pendingFinish[t] = fr
	p.sendFinish(t, fr)
}

// retire prunes a universally-acknowledged finish: every replica knows the
// transaction finished, so its view tables can no longer influence any
// decision and the durable retiredAll fact answers for it from here on.
func (p *Preventer) retire(t model.TxnID) {
	p.retiredAll[t] = true
	delete(p.pendingFinish, t)
	delete(p.stranded, t)
	delete(p.site, t)
	for _, rep := range p.reps {
		delete(rep.view, t)
	}
}

// Retired implements the simulator's optional retirer hook. Memory
// reclamation here is driven by the finish acknowledgment protocol (see
// retire), not by commit time, so there is nothing left to do. The closure
// is not sealed here (coherent.Online.Retire): with delayed announcements
// "committed ⇒ no step of t will arrive later" is not yet established.
func (p *Preventer) Retired(model.TxnID) {}

// Aborted implements sched.Control. The epoch bump fences every in-flight
// message about the rolled-back incarnation; replica soft state about the
// victims is erased synchronously (the rollback is a control-plane event
// the transactions themselves carry, like Begin).
func (p *Preventer) Aborted(victims []model.TxnID) {
	p.stats.Aborts += len(victims)
	drop := make(map[model.TxnID]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		p.epoch[t]++
		p.forget(t)
	}
	for _, rep := range p.reps {
		for _, w := range rep.waiting {
			for t := range drop {
				delete(w.blockers, t)
			}
		}
	}
	p.oc.Rebuild(drop)
}

// DeadlineAborted implements the sched.DeadlineAborter capability.
func (p *Preventer) DeadlineAborted(model.TxnID) { p.stats.Deadlines++ }

// Stats implements sched.Control.
func (p *Preventer) Stats() *sched.Stats { return &p.stats }

// TakeVictims implements sched.AsyncAborter: transactions the protocol
// machinery (probes, failure detector, processor crashes) decided to abort
// since the last drain, sorted for determinism.
func (p *Preventer) TakeVictims() []model.TxnID {
	if len(p.victims) == 0 {
		return nil
	}
	out := make([]model.TxnID, 0, len(p.victims))
	for t := range p.victims {
		if p.finishedTruth[t] {
			continue
		}
		out = append(out, t)
	}
	p.victims = make(map[model.TxnID]bool)
	model.SortTxnIDs(out)
	return out
}

func (p *Preventer) enqueueVictim(t model.TxnID) {
	if _, began := p.prio[t]; !began || p.finishedTruth[t] || p.retiredAll[t] {
		return
	}
	p.victims[t] = true
}

// localCycle is a DFS over the waits-for edges recorded at one replica
// (deterministic order). Cycles spanning replicas have no single holder of
// all their edges; those are found by probes.
func (p *Preventer) localCycle(rep *replica, t model.TxnID) []model.TxnID {
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
		if w := rep.waiting[u]; w != nil {
			next := make([]model.TxnID, 0, len(w.blockers))
			for v := range w.blockers {
				next = append(next, v)
			}
			model.SortTxnIDs(next)
			for _, v := range next {
				if c := dfs(v); c != nil {
					return c
				}
			}
		}
		onPath[u] = false
		path = path[:len(path)-1]
		return nil
	}
	return dfs(t)
}
