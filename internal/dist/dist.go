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
// Robustness machinery, all replica-local and message-driven. The parts
// that are not about views — failure detector, backoff, wait table, probes,
// grace, chaos schedule — are internal/cluster's, shared with
// internal/shard:
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
	"mla/internal/cluster"
	"mla/internal/coherent"
	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/nest"
	mnet "mla/internal/net"
	"mla/internal/sched"
	"mla/internal/telemetry"
)

// Params configures the distributed control. Every protocol timer is
// derived from Delay (cluster.Timers).
type Params struct {
	Procs int
	Owner func(model.EntityID) int
	// Delay is the bus's one-hop message latency in simulator units.
	Delay int64

	// Faults supplies per-message drop/delay verdicts and the scheduled
	// partition and processor-crash chaos (fault.Plan.Partitions,
	// fault.Plan.ProcCrashes). Nil means a reliable, failure-free network.
	Faults *fault.Injector
	// NetPolicy, when non-nil, overrides Faults for per-message verdicts.
	// Test seam for scripting exact message fates.
	NetPolicy mnet.Policy
}

// Preventer is the distributed prevention control: a facade over
// per-processor replicas that the simulator drives through sched.Control,
// sched.Ticker (clock), sched.Waker (protocol timers), and
// sched.AsyncAborter (probe- and failure-detector-initiated aborts).
type Preventer struct {
	nest  *nest.Nest
	spec  breakpoint.Spec
	k     int
	delay int64
	owner func(model.EntityID) int
	procs int

	// kit is the failure-handling machinery over bus: clock, chaos
	// schedule, failure detector, wait table, probes, grace, abort queue.
	kit  *cluster.Kit
	bus  *mnet.Bus
	reps []*replica

	// Control plane, carried by the migrating transactions themselves:
	// the exact closure, priorities, incarnation epochs, and the processor
	// each transaction currently sits at.
	oc    *coherent.Online
	prio  map[model.TxnID]int64
	epoch map[model.TxnID]int
	site  map[model.TxnID]int

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

	stats sched.Stats

	StaleWaits     int // waits a zero-delay view would have granted
	GraceAborts    int // waiters aborted after the unreachability grace period
	CrashAborts    int // transactions lost with their crashed processor
	ProbeDeadlocks int // deadlock cycles closed by edge-chasing probes
	Retransmits    int // finish retransmissions beyond the first round
}

type finRec struct {
	origin int
	epoch  int
	need   map[int]bool // peers that have not acknowledged yet
	cluster.Backoff
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
	p := &Preventer{
		nest:          n,
		spec:          spec,
		k:             n.K(),
		delay:         pr.Delay,
		owner:         pr.Owner,
		procs:         pr.Procs,
		oc:            coherent.NewOnline(n.K(), n.Level),
		prio:          make(map[model.TxnID]int64),
		epoch:         make(map[model.TxnID]int),
		site:          make(map[model.TxnID]int),
		finishedTruth: make(map[model.TxnID]bool),
		retiredAll:    make(map[model.TxnID]bool),
		pendingFinish: make(map[model.TxnID]*finRec),
	}
	sited := func(t model.TxnID) (int, bool) { q, ok := p.site[t]; return q, ok }
	p.kit = cluster.New(pr.Procs, pr.Delay, pr.Faults, pr.NetPolicy, cluster.Host{
		Epoch: func(t model.TxnID) int { return p.epoch[t] },
		Prio:  func(t model.TxnID) (int64, bool) { pr, ok := p.prio[t]; return pr, ok },
		// A transaction lives at the processor of its latest step: waiting
		// on it needs that processor reachable, and a probe chasing it goes
		// there whether or not it turns out to be blocked.
		Home:    sited,
		ProbeTo: sited,
		Done:    p.done,
		Crash:   p.crashProc,
		Rejoin:  p.rejoinProc,
		Deliver: p.receive,
	})
	p.bus = p.kit.Bus()
	p.reps = make([]*replica, pr.Procs)
	for i := range p.reps {
		p.reps[i] = &replica{up: true, k: p.k, view: make(map[model.TxnID]*repView)}
	}
	return p
}

// Name implements sched.Control.
func (p *Preventer) Name() string { return fmt.Sprintf("dist-prevent/d=%d", p.delay) }

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
	delete(p.site, t)
	p.kit.Forget(t)
	for _, rep := range p.reps {
		delete(rep.view, t)
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
	proc := p.owner(x) % p.procs
	p.site[t] = proc
	rep := p.reps[proc]
	if !rep.up {
		p.kit.Strand(t, proc)
		p.stats.Waits++
		return sched.Decision{Kind: sched.Wait}
	}
	p.kit.Unstrand(t)
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
		p.kit.ClearWait(t)
		return sched.Decision{Kind: sched.Grant}
	}
	if stale {
		p.StaleWaits++
	}
	p.kit.SetWait(proc, t, x).Blockers = blockers
	if victim, ok := p.kit.LocalVictim(proc, t); ok {
		if victim != t {
			p.stats.Wounds++
		}
		return sched.Decision{Kind: sched.Abort, Victims: []model.TxnID{victim}}
	}
	p.stats.Waits++
	return sched.Decision{Kind: sched.Wait}
}

// done: t finished (and possibly retired) — beyond the reach of any abort.
func (p *Preventer) done(t model.TxnID) bool { return p.finishedTruth[t] || p.retiredAll[t] }

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
	p.kit.Unstrand(t)
	p.kit.ClearWait(t)
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
	fr := &finRec{origin: origin, epoch: ep, need: need}
	p.pendingFinish[t] = fr
	p.sendFinish(t, fr)
}

// retire prunes a universally-acknowledged finish: every replica knows the
// transaction finished, so its view tables can no longer influence any
// decision and the durable retiredAll fact answers for it from here on.
func (p *Preventer) retire(t model.TxnID) {
	p.retiredAll[t] = true
	delete(p.pendingFinish, t)
	p.kit.Unstrand(t)
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
	drop := make(map[model.TxnID]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		p.epoch[t]++
		p.forget(t)
	}
	p.oc.Rebuild(drop)
}

// DeadlineAborted implements the sched.DeadlineAborter capability.
func (*Preventer) DeadlineAborted(model.TxnID) {}

// Stats implements sched.Control.
func (p *Preventer) Stats() *sched.Stats { return &p.stats }

// TakeVictims implements sched.AsyncAborter: transactions the protocol
// machinery (probes, failure detector, processor crashes) decided to abort
// since the last drain, sorted for determinism.
func (p *Preventer) TakeVictims() []model.TxnID { return p.kit.TakeVictims() }
