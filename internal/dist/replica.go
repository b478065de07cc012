// Per-processor replica state and the view protocol: finish retransmission,
// anti-entropy resync, and what a crash and a rejoin mean for view tables.
// Everything here runs off Tick and bus deliveries; nothing consults another
// replica's state directly.
package dist

import (
	"mla/internal/cluster"
	"mla/internal/model"
	mnet "mla/internal/net"
)

// repView is one replica's soft-state knowledge about one transaction: the
// latest boundary positions it has heard (per level) and whether it has
// heard the finish. Lost entirely when the processor crashes.
type repView struct {
	epoch    int
	bound    []int // index 0 unused
	finished bool
}

// replica is the soft state of one processor. up=false models a crashed
// processor: the view table is volatile and emptied on crash.
type replica struct {
	up bool
	k  int

	view map[model.TxnID]*repView
}

// viewFor returns the replica's view of t at the given epoch, creating or
// epoch-resetting it as needed.
func (r *replica) viewFor(t model.TxnID, epoch int) *repView {
	v := r.view[t]
	if v == nil || v.epoch != epoch {
		v = &repView{epoch: epoch, bound: make([]int, r.k+1)}
		r.view[t] = v
	}
	return v
}

// Tick implements sched.Ticker: advance the clock, apply due chaos,
// deliver matured messages, and run every replica's periodic machinery.
func (p *Preventer) Tick(now int64) {
	if !p.kit.Advance(now) {
		return
	}
	if p.procs > 1 {
		p.kit.Heartbeats()
		p.retransmitFinishes()
		p.ProbeDeadlocks += p.kit.ProbeSweep()
	}
	p.GraceAborts += p.kit.GraceSweep()
}

// NextWake implements sched.Waker: the earliest instant any timer or
// in-flight message needs a Tick.
func (p *Preventer) NextWake(int64) int64 {
	next := p.kit.NextWake()
	if p.procs > 1 {
		for _, fr := range p.pendingFinish {
			if p.reps[fr.origin].up {
				next = cluster.Earlier(next, fr.NextSend)
			}
		}
	}
	return next
}

// retransmitFinishes resends unacknowledged finishes with capped
// exponential backoff. A finish whose origin processor is down waits for
// the rejoin (which re-arms it); the origin's durable commit record
// survives the crash, only the daemon pauses.
func (p *Preventer) retransmitFinishes() {
	for _, t := range model.SortedKeys(p.pendingFinish) {
		fr := p.pendingFinish[t]
		if p.reps[fr.origin].up && p.kit.Now() >= fr.NextSend {
			p.sendFinish(t, fr)
		}
	}
}

// sendFinish transmits the finish to every peer still missing an ack and
// schedules the next round.
func (p *Preventer) sendFinish(t model.TxnID, fr *finRec) {
	for _, q := range model.SortedKeys(fr.need) {
		p.bus.Send(mnet.Message{Kind: mnet.Finish, From: fr.origin, To: q, Txn: t, Epoch: fr.epoch})
		if fr.Tries > 0 {
			p.Retransmits++
		}
	}
	fr.Sent(p.kit.Now(), p.kit.Timers().RetransmitEvery)
}

// crashProc kills processor q: its soft state (views here; wait records,
// detector and probe dedup in the kit) vanishes, its in-flight mailbox dies
// on the bus, and every unfinished transaction resident on it is lost with
// it.
func (p *Preventer) crashProc(q int) {
	rep := p.reps[q]
	if !rep.up {
		return
	}
	rep.view = make(map[model.TxnID]*repView)
	rep.up = false
	p.kit.Crash(q)
	for _, t := range model.SortedKeys(p.site) {
		if p.site[t] == q && !p.done(t) {
			p.CrashAborts++
			p.kit.Abort(t)
		}
	}
}

// rejoinProc restarts processor q with empty soft state: it announces
// itself, asks every peer for an anti-entropy snapshot, and the finish
// daemon resumes toward and from it.
func (p *Preventer) rejoinProc(q int) {
	rep := p.reps[q]
	if rep.up {
		return
	}
	rep.up = true
	p.kit.Rejoin(q)
	if p.procs > 1 {
		p.bus.Broadcast(mnet.Message{Kind: mnet.SyncRequest, From: q})
	}
	for _, fr := range p.pendingFinish {
		if fr.need[q] || fr.origin == q {
			fr.Rearm(p.kit.Now())
		}
	}
}

// receive is the bus delivery callback: dispatch one message to its
// destination replica. Any message is liveness evidence for its sender;
// first contact after suspicion additionally triggers a resync, because
// announcements sent during the silent window are gone for good.
func (p *Preventer) receive(m mnet.Message) {
	rep := p.reps[m.To]
	if !rep.up {
		return
	}
	if p.kit.Heard(m.To, m.From) {
		if m.Kind != mnet.SyncRequest && m.Kind != mnet.SyncReply {
			p.bus.Send(mnet.Message{Kind: mnet.SyncRequest, From: m.To, To: m.From})
		}
		p.rearmFinishes(m.To, m.From)
	}
	switch m.Kind {
	case mnet.Heartbeat:
		// Liveness already recorded above.
	case mnet.Boundary:
		p.onBoundary(rep, m)
	case mnet.Finish:
		p.onFinish(rep, m)
	case mnet.FinishAck:
		p.onFinishAck(m)
	case mnet.Probe:
		p.ProbeDeadlocks += p.kit.OnProbe(m)
	case mnet.SyncRequest:
		p.onSyncRequest(rep, m)
	case mnet.SyncReply:
		p.onSyncReply(rep, m)
	}
}

// rearmFinishes resets the backoff of every finish the observer originated
// that still awaits peer's ack: the peer just proved reachable again.
func (p *Preventer) rearmFinishes(observer, peer int) {
	for _, fr := range p.pendingFinish {
		if fr.origin == observer && fr.need[peer] {
			fr.Rearm(p.kit.Now())
		}
	}
}

// onBoundary merges an announcement into the replica's view. Epoch fencing
// discards announcements about rolled-back incarnations; the max-merge
// keeps the view monotone under reordering.
func (p *Preventer) onBoundary(rep *replica, m mnet.Message) {
	if p.epoch[m.Txn] != m.Epoch {
		return
	}
	v := rep.viewFor(m.Txn, m.Epoch)
	for lv := 1; lv <= p.k && lv < len(m.Bound); lv++ {
		if m.Bound[lv] > v.bound[lv] {
			v.bound[lv] = m.Bound[lv]
		}
	}
}

// onFinish records a finish and acknowledges it. The ack is sent only on
// an epoch match, so the origin keeps retransmitting rather than believing
// a dead incarnation's ack.
func (p *Preventer) onFinish(rep *replica, m mnet.Message) {
	if p.epoch[m.Txn] != m.Epoch {
		return
	}
	v := rep.viewFor(m.Txn, m.Epoch)
	v.finished = true
	p.bus.Send(mnet.Message{Kind: mnet.FinishAck, From: m.To, To: m.From, Txn: m.Txn, Epoch: m.Epoch})
}

// onFinishAck retires the transaction once the last peer acknowledges.
func (p *Preventer) onFinishAck(m mnet.Message) {
	fr := p.pendingFinish[m.Txn]
	if fr == nil || fr.epoch != m.Epoch {
		return
	}
	delete(fr.need, m.From)
	if len(fr.need) == 0 {
		p.retire(m.Txn)
	}
}

// onSyncRequest answers anti-entropy with a snapshot of the replica's view
// table. The snapshot is copied at send time: it describes this replica's
// knowledge now, not at delivery.
func (p *Preventer) onSyncRequest(rep *replica, m mnet.Message) {
	snap := make(map[model.TxnID]mnet.SyncEntry, len(rep.view))
	for t, v := range rep.view {
		bound := make([]int, len(v.bound))
		copy(bound, v.bound)
		snap[t] = mnet.SyncEntry{Epoch: v.epoch, Bound: bound, Finished: v.finished}
	}
	p.bus.Send(mnet.Message{Kind: mnet.SyncReply, From: m.To, To: m.From, Sync: snap})
}

// onSyncReply merges a peer snapshot: per-transaction max-merge with epoch
// fencing, exactly like a batch of boundary + finish announcements.
func (p *Preventer) onSyncReply(rep *replica, m mnet.Message) {
	for t, e := range m.Sync {
		if p.epoch[t] != e.Epoch {
			continue
		}
		v := rep.viewFor(t, e.Epoch)
		for lv := 1; lv <= p.k && lv < len(e.Bound); lv++ {
			if e.Bound[lv] > v.bound[lv] {
				v.bound[lv] = e.Bound[lv]
			}
		}
		if e.Finished {
			v.finished = true
		}
	}
}
