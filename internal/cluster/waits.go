package cluster

import (
	"mla/internal/model"
	mnet "mla/internal/net"
	"mla/internal/sched"
)

// Wait is one blocked request, recorded at the node that decides it. A
// transaction has at most one, wherever it is (WaitSite).
type Wait struct {
	Entity model.EntityID
	Epoch  int
	// Blockers are the waits-for edges; the control sets them.
	Blockers map[model.TxnID]bool

	nextProbe int64
	// strandedSince is when a way forward started depending on an
	// unreachable node; 0 while all are reachable.
	strandedSince int64
}

type strand struct {
	proc  int
	since int64
}

type probeKey struct {
	init   model.TxnID
	target model.TxnID
}

// SetWait returns t's wait record for entity x at node q, installing a
// fresh one (and dropping t's record anywhere else) unless the current
// incarnation already waits for x there.
func (k *Kit) SetWait(q int, t model.TxnID, x model.EntityID) *Wait {
	ep := k.host.Epoch(t)
	if w := k.nodes[q].waiting[t]; w != nil && w.Entity == x && w.Epoch == ep {
		return w
	}
	k.ClearWait(t)
	w := &Wait{Entity: x, Epoch: ep, nextProbe: k.now + k.timers.ProbeAfter}
	k.nodes[q].waiting[t] = w
	k.waitSite[t] = q
	return w
}

// ClearWait drops t's wait record wherever it is held.
func (k *Kit) ClearWait(t model.TxnID) {
	if q, ok := k.waitSite[t]; ok {
		delete(k.nodes[q].waiting, t)
		delete(k.waitSite, t)
	}
}

// WaitSite is the node holding t's wait record, if t is blocked.
func (k *Kit) WaitSite(t model.TxnID) (int, bool) {
	q, ok := k.waitSite[t]
	return q, ok
}

// Waiting returns node q's wait table; callers iterate it in
// model.SortedKeys order and drop entries only through ClearWait.
func (k *Kit) Waiting(q int) map[model.TxnID]*Wait { return k.nodes[q].waiting }

// Strand records that t's request is addressed to crashed node proc; the
// grace clock keeps running from the first stranding.
func (k *Kit) Strand(t model.TxnID, proc int) {
	if s := k.stranded[t]; s != nil {
		s.proc = proc
		return
	}
	k.stranded[t] = &strand{proc: proc, since: k.now}
}

// Unstrand forgets that t was stranded: its request reached a live node.
func (k *Kit) Unstrand(t model.TxnID) { delete(k.stranded, t) }

// Stranded reports whether t's request is held for a crashed node.
func (k *Kit) Stranded(t model.TxnID) bool { return k.stranded[t] != nil }

// Forget erases everything the kit holds about t — a new incarnation
// begins or the old one rolled back: its wait, stranding and queued abort,
// and every waits-for edge that points at it.
func (k *Kit) Forget(t model.TxnID) {
	delete(k.stranded, t)
	delete(k.victims, t)
	k.ClearWait(t)
	for _, n := range k.nodes {
		for _, w := range n.waiting {
			delete(w.Blockers, t)
		}
	}
}

// LocalVictim looks for a deadlock among the waits-for edges recorded at
// node q that t's wait just closed; cycles spanning nodes have no single
// holder of all their edges and are left to probes. On a cycle, t's wait is
// dropped and the youngest member is returned for the control to abort.
func (k *Kit) LocalVictim(q int, t model.TxnID) (model.TxnID, bool) {
	waiting := k.nodes[q].waiting
	cycle := sched.Cycle(t, func(u model.TxnID) map[model.TxnID]bool {
		if w := waiting[u]; w != nil {
			return w.Blockers
		}
		return nil
	})
	if len(cycle) == 0 {
		return "", false
	}
	k.ClearWait(t)
	return sched.Youngest(cycle, k.prio), true
}

// ProbeSweep starts (and every ProbeEvery restarts) an edge chase for each
// request blocked longer than ProbeAfter. It returns the number of deadlock
// cycles closed (chases between co-located transactions run inline).
func (k *Kit) ProbeSweep() (deadlocks int) {
	for q, n := range k.nodes {
		if !k.Up(q) {
			continue
		}
		for _, t := range model.SortedKeys(n.waiting) {
			w := n.waiting[t]
			ep := k.host.Epoch(t)
			if w.Epoch != ep || k.now < w.nextProbe {
				continue
			}
			w.nextProbe = k.now + k.timers.ProbeEvery
			for _, u := range model.SortedKeys(w.Blockers) {
				deadlocks += k.sendProbe(q, t, ep, u, t, k.prio(t))
			}
		}
	}
	return deadlocks
}

// sendProbe routes a probe chasing target; a target at the sending node is
// chased inline without touching the bus.
func (k *Kit) sendProbe(from int, init model.TxnID, initEpoch int, target, victim model.TxnID, victimPrio int64) int {
	dst, ok := k.host.ProbeTo(target)
	if !ok {
		return 0
	}
	m := mnet.Message{
		Kind: mnet.Probe, From: from, To: dst,
		Txn: target, Epoch: k.host.Epoch(target),
		Init: init, InitEpoch: initEpoch,
		Victim: victim, VictimPrio: victimPrio,
	}
	if dst == from {
		return k.OnProbe(m)
	}
	k.bus.Send(m)
	return 0
}

// OnProbe is one hop of the edge chase (the control hands every delivered
// mnet.Probe here): if the probed transaction is blocked at the receiving
// node, the probe forwards along each of its waits-for edges carrying the
// youngest transaction seen so far; an edge back to the initiator closes a
// cycle and the carried victim is queued for abort. A probe about a dead
// incarnation dies, and each (initiator, target) pair is chased at most
// once per ProbeEvery window. Returns the number of cycles closed.
func (k *Kit) OnProbe(m mnet.Message) (deadlocks int) {
	if !k.Up(m.To) || k.host.Epoch(m.Txn) != m.Epoch || k.host.Epoch(m.Init) != m.InitEpoch {
		return 0
	}
	n := k.nodes[m.To]
	w := n.waiting[m.Txn]
	if w == nil || w.Epoch != m.Epoch {
		return 0 // not blocked here: no deadlock via this edge
	}
	key := probeKey{init: m.Init, target: m.Txn}
	if exp, ok := n.seen[key]; ok && k.now < exp {
		return 0
	}
	if len(n.seen) > 1024 {
		for key, exp := range n.seen {
			if k.now >= exp {
				delete(n.seen, key)
			}
		}
	}
	n.seen[key] = k.now + k.timers.ProbeEvery
	victim, vprio := m.Victim, m.VictimPrio
	if pr := k.prio(m.Txn); sched.Younger(m.Txn, pr, victim, vprio) {
		victim, vprio = m.Txn, pr
	}
	for _, u := range model.SortedKeys(w.Blockers) {
		if u != m.Init {
			deadlocks += k.sendProbe(m.To, m.Init, m.InitEpoch, u, victim, vprio)
		} else if !k.victims[victim] && !k.host.Done(victim) {
			deadlocks++
			k.Abort(victim)
		}
	}
	return deadlocks
}

// GraceSweep aborts transactions that cannot make progress because of an
// unreachable node once the grace period expires: requests stranded at a
// crashed node, and waiters with a blocker whose home their node cannot
// reach. Returns the number of aborts queued.
func (k *Kit) GraceSweep() (aborts int) {
	for _, t := range model.SortedKeys(k.stranded) {
		s := k.stranded[t]
		if k.Up(s.proc) {
			delete(k.stranded, t) // the re-offered request is decided at the live node
		} else if k.now-s.since > k.timers.Grace {
			aborts++
			k.Abort(t)
			delete(k.stranded, t)
		}
	}
	if k.procs == 1 {
		return aborts
	}
	for q, n := range k.nodes {
		if !k.Up(q) {
			continue
		}
		for _, t := range model.SortedKeys(n.waiting) {
			w := n.waiting[t]
			switch {
			case !k.cutOff(q, w):
				w.strandedSince = 0
			case w.strandedSince == 0:
				w.strandedSince = k.now
			case k.now-w.strandedSince > k.timers.Grace:
				aborts++
				k.Abort(t)
				w.strandedSince = k.now // don't re-fire while the abort drains
			}
		}
	}
	return aborts
}

// cutOff reports whether some blocker of w is homed at a node unreachable
// from q.
func (k *Kit) cutOff(q int, w *Wait) bool {
	for u := range w.Blockers {
		if home, ok := k.host.Home(u); ok && home != q && k.Unreachable(q, home) {
			return true
		}
	}
	return false
}
