// Package cluster is the failure-handling kit that every message-driven
// control (dist.Preventer, shard.SimControl) instantiates over one net.Bus:
// timers derived from the bus delay, the fault plan's partition and crash
// schedule, a per-node heartbeat failure detector, capped retransmission
// backoff, the per-node wait table with local deadlock detection and
// edge-chasing probes for cycles that span nodes, grace-period escalation
// for waits that lead through an unreachable node, and the queue of
// transactions the machinery decided to abort.
//
// What a protocol means by a message — view tables and finishes, lock tables
// and shots — stays with its control. The kit needs four facts about a
// transaction (incarnation epoch, priority, home node, done), and they
// enter as funcs fixed at construction (Host). Everything runs off the
// control's Tick and the bus deliveries; iteration that sends messages or
// queues aborts is in sorted order, so a run is a pure function of the
// fault plan and its seed.
package cluster

import (
	"fmt"
	"sort"

	"mla/internal/fault"
	"mla/internal/model"
	mnet "mla/internal/net"
)

// Timers are the protocol periods, all derived from the bus's one-hop
// delay so larger latencies do not trip the failure detector spuriously.
type Timers struct {
	// HeartbeatEvery is the failure detector's broadcast period.
	HeartbeatEvery int64
	// SuspectAfter is how long a peer may stay silent before it is
	// suspected; it exceeds Delay + HeartbeatEvery or live peers would flap.
	SuspectAfter int64
	// Grace is how long a wait may depend on a suspected or crashed node
	// before the waiter is aborted.
	Grace int64
	// RetransmitEvery is the base retransmission period (see Backoff).
	RetransmitEvery int64
	// ProbeAfter is how long a request waits before its node starts
	// edge-chasing deadlock probes for it; ProbeEvery is the re-probe period
	// (probes are unreliable; re-probing makes detection survive loss) and
	// the window in which a node chases one (initiator, target) pair once.
	ProbeAfter, ProbeEvery int64
}

func timersFor(delay int64) Timers {
	const hb = 20
	t := Timers{
		HeartbeatEvery:  hb,
		SuspectAfter:    delay + 3*hb,
		RetransmitEvery: 2*delay + hb,
		ProbeAfter:      2*delay + hb,
	}
	t.Grace = 2 * t.SuspectAfter
	t.ProbeEvery = t.ProbeAfter
	return t
}

// Host is what the kit asks of the control it serves.
type Host struct {
	// Epoch is t's current incarnation; probes and wait records about any
	// other are dead.
	Epoch func(t model.TxnID) int
	// Prio is t's priority (larger is younger) and whether t ever began.
	Prio func(t model.TxnID) (int64, bool)
	// Home is the node t's progress depends on: a waiter blocked on t is
	// stranded while t's home is unreachable from the waiter's node.
	Home func(t model.TxnID) (int, bool)
	// ProbeTo is the node a probe chasing t is sent to.
	ProbeTo func(t model.TxnID) (int, bool)
	// Done reports that t finished and can no longer be aborted.
	Done func(t model.TxnID) bool
	// Crash and Rejoin apply the fault plan's processor crash windows; the
	// control wipes (rebuilds) its own node state and calls Kit.Crash
	// (Kit.Rejoin).
	Crash, Rejoin func(q int)
	// Deliver receives every message the bus delivers.
	Deliver func(m mnet.Message)
}

// Backoff is one sender's retransmission state: rounds go out at
// RetransmitEvery × 1, 2, 4, 8, 16, 16, … after the previous one.
type Backoff struct {
	Tries    int   // rounds sent since the last (re)arm
	NextSend int64 // when the next round is due
}

// Sent records a round sent at now and schedules the next.
func (b *Backoff) Sent(now, every int64) {
	b.NextSend = now + every<<uint(min(b.Tries, 4))
	b.Tries++
}

// Rearm restarts the schedule at now: the peer just proved reachable.
func (b *Backoff) Rearm(now int64) { b.Tries, b.NextSend = 0, now }

// Earlier folds one timer into a NextWake answer: the earliest nonzero
// instant of the two.
func Earlier(next, at int64) int64 {
	if at > 0 && (next == 0 || at < next) {
		return at
	}
	return next
}

// node is the kit's volatile state at one processor, lost on crash.
type node struct {
	waiting map[model.TxnID]*Wait

	// Failure detector.
	lastHeard []int64
	suspected []bool
	nextHb    int64

	// Probe dedup: (initiator, target) pairs recently chased, with expiry.
	seen map[probeKey]int64
}

func newNode(procs int) *node {
	return &node{
		waiting:   make(map[model.TxnID]*Wait),
		lastHeard: make([]int64, procs),
		suspected: make([]bool, procs),
		seen:      make(map[probeKey]int64),
	}
}

type chaosEvent struct {
	at    int64
	apply func()
}

// Kit is one control's instance of the machinery.
type Kit struct {
	host   Host
	procs  int
	timers Timers
	bus    *mnet.Bus
	now    int64
	nodes  []*node

	waitSite map[model.TxnID]int // node holding t's wait record
	// stranded tracks requests addressed to a crashed node: they cannot
	// even be decided there, and after Grace the requester aborts.
	stranded map[model.TxnID]*strand
	victims  map[model.TxnID]bool // asynchronous abort queue

	chaos    []chaosEvent
	chaosIdx int
}

// New builds the bus and the kit over it. policy, when non-nil, overrides
// faults for per-message drop/delay verdicts; a nil faults is a reliable,
// failure-free network.
func New(procs int, delay int64, faults *fault.Injector, policy mnet.Policy, h Host) *Kit {
	if policy == nil && faults != nil {
		policy = func(m mnet.Message) (bool, int64) { return faults.Net(m.Kind.String()) }
	}
	k := &Kit{
		host:     h,
		procs:    procs,
		timers:   timersFor(delay),
		bus:      mnet.New(procs, delay, policy),
		nodes:    make([]*node, procs),
		waitSite: make(map[model.TxnID]int),
		stranded: make(map[model.TxnID]*strand),
		victims:  make(map[model.TxnID]bool),
	}
	k.bus.OnDeliver(h.Deliver)
	for i := range k.nodes {
		k.nodes[i] = newNode(procs)
	}
	if faults != nil {
		k.chaos = schedule(faults.Plan(), procs, k.bus, h.Crash, h.Rejoin)
	}
	return k
}

// schedule translates the fault plan's partition and processor-crash
// windows into events sorted by time (plan order at equal times).
func schedule(plan fault.Plan, procs int, bus *mnet.Bus, crash, rejoin func(int)) []chaosEvent {
	var evs []chaosEvent
	for i, part := range plan.Partitions {
		sides := part.Sides
		if len(sides) == 0 { // default split: two halves
			half := make([]int, procs)
			for q := range half {
				half[q] = q
			}
			sides = [][]int{half[:(procs+1)/2], half[(procs+1)/2:]}
		}
		key := fmt.Sprintf("%s#%d", part.Name, i)
		evs = append(evs, chaosEvent{part.At, func() { bus.Partition(key, sides...) }})
		if part.Heal > 0 {
			evs = append(evs, chaosEvent{part.Heal, func() { bus.Heal(key) }})
		}
	}
	for _, c := range plan.ProcCrashes {
		q := c.Proc % procs
		evs = append(evs, chaosEvent{c.At, func() { crash(q) }})
		if c.Rejoin > 0 {
			evs = append(evs, chaosEvent{c.Rejoin, func() { rejoin(q) }})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// Bus is the message bus the kit was built over.
func (k *Kit) Bus() *mnet.Bus { return k.bus }

// Now is the simulated clock as of the last Advance.
func (k *Kit) Now() int64 { return k.now }

// Timers returns the protocol periods.
func (k *Kit) Timers() Timers { return k.timers }

// Advance moves the clock to now, applies the chaos events that came due
// and delivers matured messages. It reports false (and does nothing) when
// now is in the past.
func (k *Kit) Advance(now int64) bool {
	if now < k.now {
		return false
	}
	k.now = now
	for k.chaosIdx < len(k.chaos) && k.chaos[k.chaosIdx].at <= now {
		k.chaos[k.chaosIdx].apply()
		k.chaosIdx++
	}
	k.bus.Tick(now)
	return true
}

// NextWake is the earliest instant the kit's own timers or an in-flight
// message need an Advance, or 0; the control folds its retransmission
// timers in with Earlier.
func (k *Kit) NextWake() int64 {
	var next int64
	if k.chaosIdx < len(k.chaos) {
		next = k.chaos[k.chaosIdx].at
	}
	next = Earlier(next, k.bus.NextDelivery())
	if k.procs > 1 {
		for q, n := range k.nodes {
			if k.Up(q) {
				next = Earlier(next, n.nextHb)
			}
		}
	}
	return next
}

// Up reports whether node q is running.
func (k *Kit) Up(q int) bool { return !k.bus.Down(q) }

// Crash kills node q: the kit's soft state there vanishes and its in-flight
// mailbox dies on the bus.
func (k *Kit) Crash(q int) {
	k.nodes[q] = newNode(k.procs)
	k.bus.Crash(q)
	for t, s := range k.waitSite {
		if s == q {
			delete(k.waitSite, t)
		}
	}
}

// Rejoin restarts node q with a clean failure detector.
func (k *Kit) Rejoin(q int) {
	n := k.nodes[q]
	for i := range n.lastHeard {
		n.lastHeard[i] = k.now
		n.suspected[i] = false
	}
	n.nextHb = k.now
	k.bus.Restart(q)
}

// Heartbeats runs every live node's failure detector: broadcast liveness on
// schedule, and turn silence longer than SuspectAfter into suspicion.
func (k *Kit) Heartbeats() {
	for q, n := range k.nodes {
		if !k.Up(q) {
			continue
		}
		if k.now >= n.nextHb {
			n.nextHb = k.now + k.timers.HeartbeatEvery
			k.bus.Broadcast(mnet.Message{Kind: mnet.Heartbeat, From: q})
		}
		for p := range n.suspected {
			if p != q && k.now-n.lastHeard[p] > k.timers.SuspectAfter {
				n.suspected[p] = true
			}
		}
	}
}

// Heard records a message from peer as liveness evidence at node q and
// reports whether q had suspected peer: whatever was announced during the
// silent window is gone, so the control may want to resync.
func (k *Kit) Heard(q, peer int) (wasSuspected bool) {
	n := k.nodes[q]
	n.lastHeard[peer] = k.now
	wasSuspected = n.suspected[peer]
	n.suspected[peer] = false
	return wasSuspected
}

// Unreachable reports whether peer is crashed or suspected by node q.
func (k *Kit) Unreachable(q, peer int) bool { return !k.Up(peer) || k.nodes[q].suspected[peer] }

// Abort queues t for an asynchronous abort, unless it never began or is
// already done.
func (k *Kit) Abort(t model.TxnID) {
	if _, began := k.host.Prio(t); began && !k.host.Done(t) {
		k.victims[t] = true
	}
}

// TakeVictims drains the abort queue (sched.AsyncAborter): the transactions
// probes, the failure detector and crashes decided to abort since the last
// drain, sorted.
func (k *Kit) TakeVictims() []model.TxnID {
	if len(k.victims) == 0 {
		return nil
	}
	out := make([]model.TxnID, 0, len(k.victims))
	for _, t := range model.SortedKeys(k.victims) {
		if !k.host.Done(t) {
			out = append(out, t)
		}
	}
	k.victims = make(map[model.TxnID]bool)
	return out
}

func (k *Kit) prio(t model.TxnID) int64 {
	if pr, ok := k.host.Prio(t); ok {
		return pr
	}
	return -1
}
