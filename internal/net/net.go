// Package net is the in-simulator message substrate for the message-driven
// controls: distributed prevention (internal/dist) and the sharded lock and
// multi-shot commit protocol (internal/shard), both through the
// failure-handling kit in internal/cluster. The paper's Section 6 setting is
// a network of processors with entities resident at nodes and transactions
// migrating between them; this package gives that setting a real — if
// simulated — transport: a Bus of per-processor links carrying typed
// messages (heartbeats, deadlock probes, anti-entropy sync; boundary
// announcements, finish + acknowledgment; lock request + grant, shot
// prepare + vote), delivered on the simulated clock after a configurable
// one-hop latency.
//
// The bus is deliberately unreliable. A fault Policy may drop any message
// or add per-message latency (which reorders it behind later traffic);
// named partitions block every message between processors on different
// sides until healed; a crashed processor loses its in-flight inbound
// messages and sends/receives nothing until restarted. Protocol-level
// robustness (retransmission, acknowledgments, failure detection, resync)
// is the sender's job — see internal/cluster — exactly as on a real network.
//
// Determinism: delivery order is a pure function of (send order, latency,
// policy verdicts). Messages mature in (arrival time, send sequence) order,
// and a seeded fault.Injector supplies reproducible policy verdicts, so a
// failing chaos run replays exactly.
package net

import (
	"fmt"
	"sort"

	"mla/internal/model"
	"mla/internal/telemetry"
)

// Kind is the message type.
type Kind uint8

const (
	// Heartbeat is the failure detector's periodic liveness broadcast.
	Heartbeat Kind = iota
	// Boundary announces a transaction's latest breakpoint positions
	// (Bound, per level). Loss is safe: a missing announcement only
	// under-reports progress, making remote schedulers wait longer.
	Boundary
	// Finish announces that a transaction completed all its steps. Unlike
	// boundaries, a lost finish would strand remote waiters, so the sender
	// retransmits until it receives a FinishAck.
	Finish
	// FinishAck acknowledges a Finish back to its origin.
	FinishAck
	// Probe is an edge-chasing deadlock probe (Chandy–Misra–Haas style):
	// it chases the waits-for edge toward Txn, carrying the initiator and
	// the youngest transaction seen along the path.
	Probe
	// SyncRequest asks a peer for its full view state (anti-entropy),
	// sent on rejoin after a crash and on first contact after suspicion.
	SyncRequest
	// SyncReply carries a snapshot of the sender's view state.
	SyncReply
	// LockRequest asks the shard processor owning Entity for its exclusive
	// lock on behalf of Txn (internal/shard). Unreliable; the coordinator
	// retransmits until granted or the requester aborts.
	LockRequest
	// LockGrant tells a coordinator its LockRequest succeeded. Re-granting
	// an already-held lock is idempotent, so retransmitted requests are
	// harmless.
	LockGrant
	// ShotPrepare opens one shot of the multi-shot commit for Txn: it asks
	// a participant shard to vote on committing the current
	// breakpoint-delimited unit (internal/shard).
	ShotPrepare
	// ShotVote is a participant's commit vote for one shot back to the
	// coordinator.
	ShotVote
)

func (k Kind) String() string {
	switch k {
	case Heartbeat:
		return "heartbeat"
	case Boundary:
		return "boundary"
	case Finish:
		return "finish"
	case FinishAck:
		return "finish-ack"
	case Probe:
		return "probe"
	case SyncRequest:
		return "sync-request"
	case SyncReply:
		return "sync-reply"
	case LockRequest:
		return "lock-request"
	case LockGrant:
		return "lock-grant"
	case ShotPrepare:
		return "shot-prepare"
	case ShotVote:
		return "shot-vote"
	}
	return "unknown"
}

// SyncEntry is one transaction's worth of view state in a SyncReply.
type SyncEntry struct {
	Epoch    int
	Bound    []int // latest boundary per level; index 0 unused
	Finished bool
}

// Message is the one wire format: a flat struct whose populated fields
// depend on Kind. Epoch fields fence incarnations — a transaction's epoch
// is bumped on every (re)start, and receivers discard messages about dead
// incarnations, so a stale in-flight announcement can never resurrect
// progress a rollback undid.
type Message struct {
	Kind   Kind
	From   int
	To     int
	SentAt int64

	// Boundary, Finish, FinishAck, Probe: the subject transaction.
	Txn   model.TxnID
	Epoch int
	Bound []int // Boundary only

	// Probe only.
	Init       model.TxnID // the waiter whose blockage started the chase
	InitEpoch  int
	Victim     model.TxnID // youngest transaction on the chased path so far
	VictimPrio int64

	// SyncReply only.
	Sync map[model.TxnID]SyncEntry

	// LockRequest, LockGrant: the entity whose lock is requested/granted.
	Entity model.EntityID
	// ShotPrepare, ShotVote: the shot (unit) index within the transaction.
	Shot int
	// SyncReply from a shard processor: the locks it currently holds, per
	// transaction, so a rejoining coordinator relearns its grants
	// (internal/shard anti-entropy).
	Held map[model.TxnID][]model.EntityID
}

// Policy decides per-message faults: drop the message entirely, or deliver
// it with extra latency (enough extra reorders it behind later sends). A
// nil policy is a reliable network.
type Policy func(m Message) (drop bool, extra int64)

// Stats counts bus traffic.
type Stats struct {
	Sent         int64 // Send calls, including ones that did not get through
	Delivered    int64
	Dropped      int64 // lost by the fault policy
	DroppedLink  int64 // blocked by a partition or a down endpoint
	DroppedCrash int64 // destroyed in flight when the destination crashed
}

type packet struct {
	at  int64
	seq int64
	m   Message
}

// Bus connects procs processors with one-hop latency. Messages are handed
// to the delivery callback (OnDeliver) when they mature; zero-latency
// fault-free messages are delivered inline from Send, preserving the
// "instant announcement" semantics the Delay=0 configuration promises.
type Bus struct {
	procs    int
	latency  int64
	policy   Policy
	deliver  func(Message)
	now      int64
	seq      int64
	inflight []packet
	down     []bool
	parts    map[string]map[int]int // partition name -> proc -> side
	stats    Stats

	// trace, when attached, records one replica-rpc span per message fate:
	// an interval from send to delivery on the receiver's lane, or an
	// instant drop event on the sender's. Simulated time maps one unit to
	// one microsecond (telemetry.SimUnit). The bus is single-threaded (the
	// simulator drives it), so one lock-free Local suffices; nil trace —
	// the default — costs one nil check per message.
	trace    *telemetry.Local
	tracePID int64
}

// New creates a bus over procs processors with the given one-hop latency.
func New(procs int, latency int64, policy Policy) *Bus {
	if procs < 1 {
		panic("net: need at least one processor")
	}
	return &Bus{
		procs:   procs,
		latency: latency,
		policy:  policy,
		down:    make([]bool, procs),
		parts:   make(map[string]map[int]int),
	}
}

// OnDeliver installs the delivery callback. Must be set before any Send.
func (b *Bus) OnDeliver(f func(Message)) { b.deliver = f }

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() Stats { return b.stats }

// Snapshot is the uniform point-in-time reading of the traffic counters —
// like every Snapshot() in this codebase (lock, sched, wal), the returned
// struct is a value copy that never aliases live state: it stays valid
// forever and mutating it has no effect on the bus.
func (b *Bus) Snapshot() Stats { return b.stats }

// AttachTelemetry starts recording replica-rpc spans into tel. Call before
// the run; a nil tel detaches.
func (b *Bus) AttachTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		b.trace = nil
		return
	}
	b.trace = tel.Trace.Local()
	b.tracePID = tel.Trace.NextPID()
	tel.Trace.NameProcess(b.tracePID, "net bus")
	for p := 0; p < b.procs; p++ {
		tel.Trace.NameLane(b.tracePID, int64(p), fmt.Sprintf("proc %d", p))
	}
}

// traceDelivery records a delivered message as a send→deliver interval on
// the receiver's lane.
func (b *Bus) traceDelivery(m Message) {
	if b.trace == nil {
		return
	}
	start := telemetry.SimUnit(m.SentAt)
	b.trace.RecordAt(start, telemetry.SimUnit(b.now)-start, "replica-rpc", m.Kind.String(),
		b.tracePID, int64(m.To), 0,
		"from", fmt.Sprint(m.From), "to", fmt.Sprint(m.To), "txn", string(m.Txn))
}

// traceDrop records a lost message as an instant on the sender's lane.
func (b *Bus) traceDrop(m Message, reason string) {
	if b.trace == nil {
		return
	}
	b.trace.RecordAt(telemetry.SimUnit(b.now), 0, "replica-rpc", "drop "+m.Kind.String(),
		b.tracePID, int64(m.From), 0,
		"reason", reason, "from", fmt.Sprint(m.From), "to", fmt.Sprint(m.To))
}

// Down reports whether processor p is crashed.
func (b *Bus) Down(p int) bool { return b.down[p] }

// Partition installs (or replaces) a named partition: processors assigned
// to different sides cannot exchange messages while it is active;
// processors not listed in any side are unaffected. Multiple named
// partitions compose — a message is blocked if any active partition
// separates its endpoints.
func (b *Bus) Partition(name string, sides ...[]int) {
	m := make(map[int]int)
	for si, group := range sides {
		for _, q := range group {
			m[q] = si
		}
	}
	b.parts[name] = m
}

// Heal removes the named partition.
func (b *Bus) Heal(name string) { delete(b.parts, name) }

// Partitioned reports whether from and to are currently separated.
func (b *Bus) Partitioned(from, to int) bool {
	for _, sides := range b.parts {
		sf, okf := sides[from]
		st, okt := sides[to]
		if okf && okt && sf != st {
			return true
		}
	}
	return false
}

// Crash marks p down and destroys every message in flight to it: its
// mailbox dies with it. Messages it already sent stay on the wire.
func (b *Bus) Crash(p int) {
	b.down[p] = true
	kept := b.inflight[:0]
	for _, pk := range b.inflight {
		if pk.m.To == p {
			b.stats.DroppedCrash++
			b.traceDrop(pk.m, "crash")
			continue
		}
		kept = append(kept, pk)
	}
	b.inflight = kept
}

// Restart marks p up again. It rejoins with an empty mailbox; state
// recovery is the protocol's job (anti-entropy sync in the controls).
func (b *Bus) Restart(p int) { b.down[p] = false }

// Send routes one message. Sends to self are a protocol bug and panic;
// sends across a partition or to/from a down processor are silently lost
// (counted in Stats), exactly like a real network.
func (b *Bus) Send(m Message) {
	if m.From == m.To {
		panic(fmt.Sprintf("net: self-send of %v at proc %d", m.Kind, m.From))
	}
	m.SentAt = b.now
	b.stats.Sent++
	if b.down[m.From] || b.down[m.To] || b.Partitioned(m.From, m.To) {
		b.stats.DroppedLink++
		b.traceDrop(m, "link")
		return
	}
	var drop bool
	var extra int64
	if b.policy != nil {
		drop, extra = b.policy(m)
	}
	if drop {
		b.stats.Dropped++
		b.traceDrop(m, "fault")
		return
	}
	at := b.now + b.latency + extra
	if at <= b.now {
		b.stats.Delivered++
		b.traceDelivery(m)
		b.deliver(m)
		return
	}
	b.seq++
	b.inflight = append(b.inflight, packet{at: at, seq: b.seq, m: m})
}

// Broadcast sends m to every processor except m.From.
func (b *Bus) Broadcast(m Message) {
	for q := 0; q < b.procs; q++ {
		if q == m.From {
			continue
		}
		mm := m
		mm.To = q
		b.Send(mm)
	}
}

// Tick advances the clock and delivers every matured message in
// (arrival time, send order). Deliveries may send further messages;
// zero-latency ones are delivered inline, later ones wait in flight.
func (b *Bus) Tick(now int64) {
	if now < b.now {
		return
	}
	b.now = now
	if len(b.inflight) == 0 {
		return
	}
	var due []packet
	kept := b.inflight[:0]
	for _, pk := range b.inflight {
		if pk.at <= now {
			due = append(due, pk)
		} else {
			kept = append(kept, pk)
		}
	}
	b.inflight = kept
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		return due[i].seq < due[j].seq
	})
	for _, pk := range due {
		if b.down[pk.m.To] {
			// Crashed after the message was sent but before it matured.
			b.stats.DroppedCrash++
			b.traceDrop(pk.m, "crash")
			continue
		}
		b.stats.Delivered++
		b.traceDelivery(pk.m)
		b.deliver(pk.m)
	}
}

// NextDelivery returns the earliest in-flight arrival time, or 0 when
// nothing is in flight. The simulator uses it to schedule wake-ups.
func (b *Bus) NextDelivery() int64 {
	next := int64(0)
	for _, pk := range b.inflight {
		if next == 0 || pk.at < next {
			next = pk.at
		}
	}
	return next
}
