package coherent

import (
	"math/bits"
	"slices"

	"mla/internal/model"
)

// Online maintains the coherent closure of the dependency relation ≤e of a
// growing execution — the incremental counterpart of Relation and the data
// structure behind the Detector scheduler (Section 6's cycle-detection
// sketch). Unlike the static Relation it supports appending steps and
// breakpoints online:
//
//   - appending a step adds its program-order and entity-order generator
//     edges, plus the "pinned" edges required by coherence rule (b): if an
//     earlier step α of t precedes some β and t's segment containing α is
//     still open at the relevant level, then every future step of t in that
//     segment must also precede β. Such β are pinned per (transaction,
//     level) and released when a breakpoint of that level is crossed.
//   - appending a breakpoint (a cut of some coarseness) closes segments and
//     clears the corresponding pinned sets.
//
// A step is inserted by one of two rules. The general one (process) is a
// pairwise worklist over derived pairs. A step of a transaction that holds
// no pin — every step the Section 6 delay rule admits, so every insert of
// the Preventer family — has no out-edge and is a closure sink: linkSink
// inserts it in closed form from the same traversal that previews it
// (collectPreds), in time linear in its predecessor set. process remains
// the rule for pinned transactions (the Detector's optimistic inserts), and
// its visiting order defines the cycle witness (CycleTxns).
//
// A step that closes a cycle leaves nothing behind (AddStep). Rollback is
// incremental when it can be and a rebuild when it must: dropping a whole
// transaction whose steps are closure-sinks (no live step is reachable
// from any of them) retracts exactly those steps in place —
// tombstone the step slots, clear the victim's per-transaction state, pop
// its steps off the per-entity access chains, and mask its bits out of
// every live reach/pred/pinned set. The sink condition makes this exact:
// a dead step that reaches no live step contributed nothing to any live
// step's predecessor set, so masking its bits leaves precisely the closure
// a filter-and-replay would rebuild (TestRetractEquivalence pins this on
// randomized histories). A partial keep, or a dropped step with live
// closure-successors, falls back to the full replay.
//
// Commit is the mirror image: Retire marks a transaction committed and
// seals the committed prefix of the closure — every committed transaction
// whose closure-predecessors are all sealable too leaves the relation for
// good (see seal), so the state is bounded by the transactions in flight,
// not by the length of the run.
type Online struct {
	k     int
	level func(a, b model.TxnID) int

	events []oevent

	// Replayable state below; reset by rebuild.
	txns    []model.TxnID
	txnIdx  map[model.TxnID]int
	stepTxn []int // global step -> txn index
	stepSeq []int // global step -> 1-based seq
	stepEnt []int // global step -> entity row (chains)
	perTxn  [][]int
	coarse  [][]int // per txn: coarse[pos-1] = coarseness of cut after step pos (0 = none yet)

	reach, pred []bitset
	pinned      [][]bitset // per txn, per level 2..k

	// Per-entity access chains: entSlot maps an entity to its row of the
	// chains slab, whose tail is the entity's last live accessor. A row
	// that sealing or retraction empties stays mapped until a reset.
	entSlot map[model.EntityID]int
	chains  [][]int // per entity row: live accessor steps, in order

	// Retraction bookkeeping: dead marks tombstoned step slots (indices are
	// never reused between rebuilds), liveSteps counts the rest.
	// forceReplay (tests only) disables the incremental path so replay and
	// retraction can be compared.
	dead        bitset
	liveSteps   int
	forceReplay bool
	retractions int // total successful incremental retractions

	// Sealing bookkeeping. committed marks (per txn index, replayable) the
	// transactions Retire announced that seal has not reclaimed yet, and
	// nCommitted counts them. OnSeal, when set, is told each transaction as
	// it leaves the closure, so the owner can free its own per-transaction
	// state; it must not re-enter oc. noSeal (tests only) turns Retire into
	// a bare mark, so a sealing closure can be compared with one that keeps
	// everything.
	committed  []bool
	nCommitted int
	OnSeal     func(model.TxnID)
	noSeal     bool

	// Scratch kept for its capacity: applyStep's edge work list, seal's
	// candidate set, and process's trail of the bits it set: {a, b, 0} for
	// an edge a → b, {ti, b, lv} for pinned[ti][lv] bit b.
	queue   [][2]int
	sealing bitset
	trail   [][3]int

	// Preview scratch, reused across collectPreds calls. Online is driven
	// under its owner's serialization (the engine mutex or the simulator
	// loop), so struct-owned scratch needs no locking. pvMax holds, per
	// transaction index, the max seq seen during the last preview; only the
	// entries pvTouched lists are nonzero (linkSink or the next collectPreds
	// re-zeroes them), so growing it lazily never needs a wipe. pvLv[u] is
	// level(u, t), valid while pvMax[u] != 0.
	pvVisited bitset
	pvStack   []int
	pvMax     []int
	pvLv      []int
	pvTouched []int

	// The preview handoff: the scratch previews a next step of pvTxn on
	// pvEnt, and while pvFresh is set applyStep links that step from it
	// instead of traversing again. applyStep, Retire and RebuildPartial
	// clear it; AddCut need not (a cut lands after a transaction's latest
	// step, which no mate walk reaches).
	pvTxn   model.TxnID
	pvEnt   model.EntityID
	pvFresh bool

	// noSink (tests only) sends every step down process, so the closed-form
	// insertion can be compared with the general rule.
	noSink bool

	// cyclic: the last AddStep was rejected, with a witness of transaction
	// indices cycleA, cycleB (CycleTxns).
	cyclic         bool
	cycleA, cycleB int
}

type oevent struct {
	kind   evKind
	txn    model.TxnID
	entity model.EntityID // step events
	coarse int            // cut events
}

type evKind uint8

const (
	evStep evKind = iota
	evCut
	evCommit
)

// bitset is the package's one set of small non-negative integers (step
// slots, segment indices): growable, so the Online's rows widen as steps
// arrive, while Relation preallocates its rows at the instance's size.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(i&63)
}

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// forEachNotIn calls f for every element of b that is absent from other.
func (b bitset) forEachNotIn(other bitset, f func(i int)) {
	for wi, w := range b {
		if wi < len(other) {
			w &^= other[wi]
		}
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func (b bitset) forEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// clear removes i and drops trailing zero words (previews size by slots).
func (b *bitset) clear(i int) {
	if w := i >> 6; w < len(*b) {
		(*b)[w] &^= 1 << uint(i&63)
	}
	for len(*b) > 0 && (*b)[len(*b)-1] == 0 {
		*b = (*b)[:len(*b)-1]
	}
}

// subsetOf reports whether every element of b is in other.
func (b bitset) subsetOf(other bitset) bool {
	for wi, w := range b {
		if wi < len(other) {
			w &^= other[wi]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// andNot clears every bit of other from b.
func (b bitset) andNot(other bitset) {
	n := len(b)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		b[i] &^= other[i]
	}
}

// orWith sets b |= other, growing b as needed, and reports whether b changed.
func (b *bitset) orWith(other bitset) bool {
	for len(*b) < len(other) {
		*b = append(*b, 0)
	}
	changed := false
	for i, w := range other {
		if (*b)[i]|w != (*b)[i] {
			(*b)[i] |= w
			changed = true
		}
	}
	return changed
}

// count returns the number of elements.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func NewOnline(k int, level func(a, b model.TxnID) int) *Online {
	oc := &Online{k: k, level: level}
	oc.reset()
	return oc
}

// regrow extends rows by one empty row. A reset truncates the row tables
// but leaves each row's header behind the length; re-exposing it keeps the
// row's backing array, where appending nil would regrow it word by word.
func regrow[R ~[]E, E any](rows []R) []R {
	n := len(rows)
	if n == cap(rows) {
		return append(rows, nil)
	}
	rows = rows[:n+1]
	rows[n] = rows[n][:0]
	return rows
}

// truncate empties every row, keeping each row's storage.
func truncate[R ~[]E, E any](rows []R) []R {
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// reset empties the replayable state, keeping its storage: a sealing
// closure resets every time it goes quiescent, so fresh maps and slices per
// reset would be the dominant allocation of a steady run.
func (oc *Online) reset() {
	oc.txns = oc.txns[:0]
	oc.stepTxn = oc.stepTxn[:0]
	oc.stepSeq = oc.stepSeq[:0]
	oc.stepEnt = oc.stepEnt[:0]
	oc.perTxn = oc.perTxn[:0]
	oc.coarse = oc.coarse[:0]
	oc.reach = oc.reach[:0]
	oc.pred = oc.pred[:0]
	oc.pinned = oc.pinned[:0]
	oc.committed = oc.committed[:0]
	oc.dead = oc.dead[:0]
	oc.chains = oc.chains[:0]
	if oc.txnIdx == nil {
		oc.txnIdx = make(map[model.TxnID]int)
		oc.entSlot = make(map[model.EntityID]int)
	} else {
		clear(oc.txnIdx)
		clear(oc.entSlot)
	}
	oc.nCommitted = 0
	oc.liveSteps = 0
	oc.cyclic = false
}

func (oc *Online) txn(t model.TxnID) int {
	if ti, ok := oc.txnIdx[t]; ok {
		return ti
	}
	ti := len(oc.txns)
	oc.txnIdx[t] = ti
	oc.txns = append(oc.txns, t)
	oc.perTxn = regrow(oc.perTxn)
	oc.coarse = regrow(oc.coarse)
	oc.pinned = regrow(oc.pinned)
	oc.pinned[ti] = truncate(slices.Grow(oc.pinned[ti], oc.k+1)[:oc.k+1])
	oc.committed = append(oc.committed, false)
	return ti
}

// entity returns x's row of the chains slab, adding one on first sight.
func (oc *Online) entity(x model.EntityID) int {
	e, ok := oc.entSlot[x]
	if !ok {
		e = len(oc.chains)
		oc.chains = regrow(oc.chains)
		oc.entSlot[x] = e
	}
	return e
}

// AddStep appends a step of t on x, returning false when it closes a cycle
// in the coherent closure. A rejected step is undone before AddStep
// returns: the closure is left exactly as it was, and CycleTxns names the
// cycle's witness pair.
func (oc *Online) AddStep(t model.TxnID, x model.EntityID) bool {
	oc.cyclic = false
	oc.applyStep(t, x)
	if !oc.cyclic {
		oc.events = append(oc.events, oevent{kind: evStep, txn: t, entity: x})
		return true
	}
	// Undo the step: clear the bits process logged, each clear before it,
	// and pop the step off its slot, its transaction (known before: only a
	// pinned step closes a cycle) and its entity chain. A chain row the step
	// added stays mapped and empty, as after a retraction.
	for _, r := range oc.trail {
		if r[2] > 0 {
			oc.pinned[r[0]][r[2]].clear(r[1])
		} else {
			oc.reach[r[0]].clear(r[1])
			oc.pred[r[1]].clear(r[0])
		}
	}
	g := len(oc.stepTxn) - 1
	ti, e := oc.stepTxn[g], oc.stepEnt[g]
	oc.stepTxn, oc.stepSeq, oc.stepEnt = oc.stepTxn[:g], oc.stepSeq[:g], oc.stepEnt[:g]
	oc.reach, oc.pred = oc.reach[:g], oc.pred[:g]
	oc.liveSteps--
	oc.perTxn[ti] = oc.perTxn[ti][:len(oc.perTxn[ti])-1]
	oc.coarse[ti] = oc.coarse[ti][:len(oc.coarse[ti])-1]
	oc.chains[e] = oc.chains[e][:len(oc.chains[e])-1]
	return false
}

// AddCut appends a breakpoint of the given coarseness after t's latest
// step.
func (oc *Online) AddCut(t model.TxnID, coarse int) {
	oc.events = append(oc.events, oevent{kind: evCut, txn: t, coarse: coarse})
	oc.applyCut(t, coarse)
}

// Rebuild removes every event of the dropped transactions and replays the
// rest, resetting the relation.
func (oc *Online) Rebuild(drop map[model.TxnID]bool) {
	keep := make(map[model.TxnID]int, len(drop))
	for t := range drop {
		keep[t] = 0
	}
	oc.RebuildPartial(keep)
}

// RebuildPartial removes, for each transaction in keep, every step event
// beyond its kept prefix (and the breakpoints attached to the removed
// steps), then replays the remainder. keep[t] = 0 drops t entirely.
//
// Full drops of closure-sink transactions take the incremental retraction
// path (see tryRetract) and never replay; partial keeps and drops with live
// closure-successors fall back to filter-and-replay.
func (oc *Online) RebuildPartial(keep map[model.TxnID]int) {
	oc.pvFresh = false
	if !oc.tryRetract(keep) {
		seen := make(map[model.TxnID]int, len(keep))
		kept := oc.events[:0]
		for _, ev := range oc.events {
			k, tracked := keep[ev.txn]
			// A tracked commit event matches no case and is dropped: a
			// rolled-back transaction was not committed.
			switch {
			case !tracked:
				kept = append(kept, ev)
			case ev.kind == evCut:
				if seen[ev.txn] >= 1 && seen[ev.txn] <= k {
					kept = append(kept, ev)
				}
			case ev.kind == evStep:
				if seen[ev.txn] < k {
					kept = append(kept, ev)
				}
				seen[ev.txn]++
			}
		}
		oc.events = kept
		oc.replay()
	}
	// The rollback may have removed the last uncommitted predecessor of a
	// committed transaction.
	oc.seal()
}

// replay rebuilds the relation from the event log. Step slots and
// transaction indices are renumbered densely; the committed marks are
// re-derived from the log's commit events.
func (oc *Online) replay() {
	oc.reset()
	for _, ev := range oc.events {
		switch ev.kind {
		case evStep:
			oc.applyStep(ev.txn, ev.entity)
		case evCut:
			oc.applyCut(ev.txn, ev.coarse)
		case evCommit:
			oc.applyCommit(ev.txn)
		}
	}
}

// tryRetract attempts to undo the dropped transactions in place instead of
// replaying. It succeeds only when the retraction is provably exact:
//
//   - every keep is a full drop (partial keeps shift seq numbering),
//   - no dropped step reaches a live step outside the drop set (the
//     closure-sink condition).
//
// Under the sink condition the dropped steps contributed nothing to any
// surviving step's predecessor set — every edge they induced points INTO
// the drop set — so masking their bits out of reach/pred/pinned leaves
// exactly the closure a replay would rebuild. It also implies the dropped
// steps form a suffix of every per-entity access chain (a later live
// accessor would be a closure-successor), so popping chain suffixes
// restores each entity's last live accessor.
//
// On success the step slots are tombstoned, not compacted; indices stay
// stable until the next full replay.
func (oc *Online) tryRetract(keep map[model.TxnID]int) bool {
	if oc.forceReplay {
		return false
	}
	for _, k := range keep {
		if k != 0 {
			return false
		}
	}
	var dying bitset
	total := 0
	for t := range keep {
		ti, ok := oc.txnIdx[t]
		if !ok {
			continue
		}
		for _, g := range oc.perTxn[ti] {
			dying.set(g)
			total++
		}
	}
	// Sink check: a dying step reaching a step that is neither dying nor
	// already dead has a live closure-successor — retraction would be
	// inexact, so replay.
	for t := range keep {
		ti, ok := oc.txnIdx[t]
		if !ok {
			continue
		}
		for _, g := range oc.perTxn[ti] {
			for wi, w := range oc.reach[g] {
				if wi < len(dying) {
					w &^= dying[wi]
				}
				if wi < len(oc.dead) {
					w &^= oc.dead[wi]
				}
				if w != 0 {
					return false
				}
			}
		}
	}

	// Commit point: everything below is pure bookkeeping removal.
	// 1. The event log loses every event of the dropped transactions.
	kept := oc.events[:0]
	for _, ev := range oc.events {
		if _, dropped := keep[ev.txn]; !dropped {
			kept = append(kept, ev)
		}
	}
	oc.events = kept
	// 2. Per-entity chains lose their dead suffixes; the last live accessor
	// becomes the entity's last accessor again.
	for t := range keep {
		ti, ok := oc.txnIdx[t]
		if !ok {
			continue
		}
		for _, g := range oc.perTxn[ti] {
			ch := oc.chains[oc.stepEnt[g]]
			for len(ch) > 0 && (dying.has(ch[len(ch)-1]) || oc.dead.has(ch[len(ch)-1])) {
				ch = ch[:len(ch)-1]
			}
			oc.chains[oc.stepEnt[g]] = ch
		}
		// 3. The victim's per-transaction state resets; its txn slot is kept
		// for reuse by a restarted attempt.
		oc.perTxn[ti] = oc.perTxn[ti][:0]
		oc.coarse[ti] = oc.coarse[ti][:0]
		truncate(oc.pinned[ti])
	}
	// 4. Tombstone the slots and mask the dead bits out of every live set.
	// pred of a live step cannot contain a dying bit (that edge would make
	// the live step a closure-successor), but masking is cheap and keeps
	// the invariant mechanical rather than argued.
	oc.bury(dying, total)
	oc.retractions++
	return true
}

// bury tombstones the step slots in dying (total of them) and masks their
// bits out of every live reach/pred/pinned set — the common tail of
// retraction and sealing.
func (oc *Online) bury(dying bitset, total int) {
	dying.forEach(func(g int) {
		oc.dead.set(g)
		oc.reach[g] = oc.reach[g][:0]
		oc.pred[g] = oc.pred[g][:0]
	})
	oc.liveSteps -= total
	for g := range oc.stepTxn {
		if oc.dead.has(g) {
			continue
		}
		oc.reach[g].andNot(dying)
		oc.pred[g].andNot(dying)
	}
	for ti := range oc.pinned {
		for lv := range oc.pinned[ti] {
			oc.pinned[ti][lv].andNot(dying)
		}
	}
}

// compactSlack is the constant in the compaction trigger: step slots may
// outnumber live steps by 2× plus this many before seal renumbers them.
const compactSlack = 64

// Retire records that t committed — it performs no further step and is
// never rolled back — and seals whatever that makes reclaimable.
func (oc *Online) Retire(t model.TxnID) {
	oc.pvFresh = false
	if _, ok := oc.txnIdx[t]; !ok {
		// Nothing of t is in the closure (it never stepped, or was already
		// sealed): there is nothing to hold on to.
		if oc.OnSeal != nil {
			oc.OnSeal(t)
		}
		return
	}
	oc.events = append(oc.events, oevent{kind: evCommit, txn: t})
	oc.applyCommit(t)
	oc.seal()
}

func (oc *Online) applyCommit(t model.TxnID) {
	if ti := oc.txn(t); !oc.committed[ti] {
		oc.committed[ti] = true
		oc.nCommitted++
	}
}

// seal removes the committed prefix of the closure: the largest set S of
// committed transactions such that every closure-predecessor (pred[g]) of
// every step g of a member belongs to a member. It mirrors tryRetract,
// which removes closure-sinks: sealed steps are closure-sources.
//
// Sealing is exact (DESIGN.md, "Sealing the committed prefix"): members of
// S perform no further steps and are never rolled back, and no edge the
// closure can ever gain enters S from outside — a new step is not in S; a
// pin target has a predecessor in a transaction that is still stepping; a
// transitive edge into S needs an edge into S to start from; rule (b) turns
// a → b with b ∈ S into a′ → b only for a′ in a's transaction, which is in
// S because S is pred-closed. So no path between live steps passes through
// S, and the closure restricted to them is the same with S dropped
// (TestSealEquivalence). Pred-closure also makes the sealed steps a prefix
// of every per-entity chain.
func (oc *Online) seal() {
	if oc.nCommitted == 0 || oc.noSeal {
		return
	}
	// Fixpoint: start from every committed transaction's steps and evict
	// any transaction with a predecessor outside the candidate set.
	sealing := oc.sealing[:0]
	for ti, c := range oc.committed {
		if c {
			for _, g := range oc.perTxn[ti] {
				sealing.set(g)
			}
		}
	}
	oc.sealing = sealing // keep the grown scratch
	evicted := 0
	for changed := true; changed; {
		changed = false
		for ti, c := range oc.committed {
			if !c || oc.evicted(ti, sealing) {
				continue
			}
			for _, g := range oc.perTxn[ti] {
				if oc.pred[g].subsetOf(sealing) {
					continue
				}
				for _, h := range oc.perTxn[ti] {
					sealing.clear(h)
				}
				evicted++
				changed = true
				break
			}
		}
	}
	if evicted == oc.nCommitted {
		return
	}
	total := 0
	for ti, c := range oc.committed {
		if !c || oc.evicted(ti, sealing) {
			continue
		}
		// Per-entity chains lose their sealed prefixes, shifted out so
		// that each row keeps the start of its storage.
		for _, g := range oc.perTxn[ti] {
			ch := oc.chains[oc.stepEnt[g]]
			n := 0
			for n < len(ch) && sealing.has(ch[n]) {
				n++
			}
			if n > 0 {
				oc.chains[oc.stepEnt[g]] = ch[:copy(ch, ch[n:])]
			}
		}
		total += len(oc.perTxn[ti])
		t := oc.txns[ti]
		delete(oc.txnIdx, t)
		oc.txns[ti] = ""
		// Emptied, not dropped: the slot is dead until a reset, which hands
		// the rows' storage to whoever takes the slot next (regrow).
		oc.perTxn[ti], oc.coarse[ti] = oc.perTxn[ti][:0], oc.coarse[ti][:0]
		truncate(oc.pinned[ti])
		oc.committed[ti] = false
		oc.nCommitted--
		if oc.OnSeal != nil {
			oc.OnSeal(t)
		}
	}
	if total == oc.liveSteps {
		// Quiescent: nothing live is left to anchor anything.
		oc.events = oc.events[:0]
		oc.reset()
		return
	}
	kept := oc.events[:0]
	for _, ev := range oc.events {
		if _, live := oc.txnIdx[ev.txn]; live {
			kept = append(kept, ev)
		}
	}
	oc.events = kept
	oc.bury(sealing, total)
	if len(oc.stepTxn) > 2*oc.liveSteps+compactSlack {
		oc.replay()
	}
}

// evicted reports whether committed transaction ti has been thrown out of
// the candidate set: a member keeps all its steps in it, an evicted one
// none. A committed transaction without steps is trivially a member.
func (oc *Online) evicted(ti int, sealing bitset) bool {
	return len(oc.perTxn[ti]) > 0 && !sealing.has(oc.perTxn[ti][0])
}

// Retractions returns the total number of rollbacks handled by incremental
// retraction rather than replay. Observability for benchmarks and the
// equivalence tests.
func (oc *Online) Retractions() int { return oc.retractions }

// CycleTxns returns the transactions of the two steps whose pair closed the
// cycle (valid after AddStep returned false, until the closure next
// changes). A rejected step usually closes many cycles; the witness is the last cycle-closing pair process's LIFO
// worklist visited, so it is defined by that visiting order and by nothing
// more canonical. The Detector's victim choice, and with it every `detect`
// row of EXPERIMENTS.md, is a function of it: internal/bench's golden
// tables E5, E11, E12 and E16 pin the order.
func (oc *Online) CycleTxns() []model.TxnID {
	if !oc.cyclic {
		return nil
	}
	a, b := oc.txns[oc.cycleA], oc.txns[oc.cycleB]
	if a == b {
		return []model.TxnID{a}
	}
	return []model.TxnID{a, b}
}

// Steps returns the number of live steps.
func (oc *Online) Steps() int { return oc.liveSteps }

// Slots returns the number of step slots in use, live or tombstoned: the
// width of every bitset. Compaction keeps it within 2·Steps() + compactSlack
// of a sealing closure; rollbacks alone only ever grow it until a replay.
func (oc *Online) Slots() int { return len(oc.stepTxn) }

func (oc *Online) applyStep(t model.TxnID, x model.EntityID) {
	ti := oc.txn(t)
	// A transaction that owes no pinned successor gains a closure sink: see
	// linkSink. The traversal must run before g becomes t's last step and
	// x's last accessor, unless a preview of this very step already ran it
	// and nothing has changed since.
	sink := !oc.noSink && oc.unpinned(ti)
	if sink && !(oc.pvFresh && oc.pvTxn == t && oc.pvEnt == x) {
		oc.collectPreds(t, x)
	}
	oc.pvFresh = false
	e := oc.entity(x)
	g := len(oc.stepTxn)
	seq := len(oc.perTxn[ti]) + 1
	oc.stepTxn = append(oc.stepTxn, ti)
	oc.stepSeq = append(oc.stepSeq, seq)
	oc.stepEnt = append(oc.stepEnt, e)
	oc.reach = regrow(oc.reach)
	oc.pred = regrow(oc.pred)
	oc.liveSteps++

	oc.queue = oc.queue[:0]
	if !sink {
		if seq > 1 {
			oc.queue = append(oc.queue, [2]int{oc.perTxn[ti][seq-2], g})
		}
		if ch := oc.chains[e]; len(ch) > 0 {
			oc.queue = append(oc.queue, [2]int{ch[len(ch)-1], g})
		}
		// Rule (b), future part: this step extends t's open segments, so it
		// inherits every pinned successor obligation. Level 1 is included: a
		// B(1) segment is the whole transaction, so level-1 pins persist until
		// the transaction ends.
		for lv := 1; lv <= oc.k; lv++ {
			oc.pinned[ti][lv].forEach(func(b int) {
				oc.queue = append(oc.queue, [2]int{g, b})
			})
		}
	}

	oc.perTxn[ti] = append(oc.perTxn[ti], g)
	oc.coarse[ti] = append(oc.coarse[ti], 0) // boundary after seq not yet known
	oc.chains[e] = append(oc.chains[e], g)
	if sink {
		oc.linkSink(g)
	} else {
		oc.process()
	}
}

// unpinned reports whether transaction ti owes no pinned successor at any
// level, so that its next step starts with no out-edge.
func (oc *Online) unpinned(ti int) bool {
	for lv := 1; lv <= oc.k; lv++ {
		for _, w := range oc.pinned[ti][lv] {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// linkSink inserts step g of an unpinned transaction in closed form, from
// the set collectPreds left in the preview scratch. With no pin to
// inherit, every pair process would derive for g ends in g — its generator
// edges point into it, and transitivity and rule (b) only ever replace the
// tail of such a pair — so g reaches nothing, no cycle can pass through it,
// and its predecessor set is exactly the previewed one. Rule (b)'s future
// part pins g on every predecessor transaction u with a member in a still
// open B(level(u,t)) segment; open segments are a suffix of u, so u's
// latest member decides. Pins and rows are sets, so the order process
// would have found the pairs in leaves no trace.
func (oc *Online) linkSink(g int) {
	oc.pred[g] = append(oc.pred[g], oc.pvVisited...)
	oc.pvVisited.forEach(func(a int) { oc.reach[a].set(g) })
	for _, u := range oc.pvTouched {
		if oc.pvOpen(u) {
			oc.pinned[u][oc.pvLv[u]].set(g)
		}
		oc.pvMax[u] = 0
	}
	oc.pvTouched = oc.pvTouched[:0]
}

func (oc *Online) applyCut(t model.TxnID, coarse int) {
	ti, ok := oc.txnIdx[t]
	if !ok || len(oc.perTxn[ti]) == 0 {
		return
	}
	n := len(oc.perTxn[ti])
	if coarse < 2 {
		coarse = 2
	}
	oc.coarse[ti][n-1] = coarse
	for lv := coarse; lv <= oc.k; lv++ {
		oc.pinned[ti][lv] = oc.pinned[ti][lv][:0]
	}
}

// segmentOpen reports whether no boundary of coarseness ≤ lv has been
// recorded at or after position seq of transaction ti.
func (oc *Online) segmentOpen(ti, seq, lv int) bool {
	for p := seq; p <= len(oc.perTxn[ti]); p++ {
		if c := oc.coarse[ti][p-1]; c != 0 && c <= lv {
			return false
		}
	}
	return true
}

// process drains oc.queue, closing the relation under transitivity and
// rule (b), and logs every bit it sets into the trail.
func (oc *Online) process() {
	oc.trail = oc.trail[:0]
	for len(oc.queue) > 0 {
		p := oc.queue[len(oc.queue)-1]
		oc.queue = oc.queue[:len(oc.queue)-1]
		a, b := p[0], p[1]
		ta, tb := oc.stepTxn[a], oc.stepTxn[b]
		if a == b {
			oc.cyclic = true
			oc.cycleA, oc.cycleB = ta, tb
			continue
		}
		if oc.reach[a].has(b) {
			continue
		}
		if oc.reach[b].has(a) {
			oc.cyclic = true
			oc.cycleA, oc.cycleB = ta, tb
		}
		oc.reach[a].set(b)
		oc.pred[b].set(a)
		oc.trail = append(oc.trail, [3]int{a, b, 0})

		if ta != tb {
			lv := oc.level(oc.txns[ta], oc.txns[tb])
			// Rule (b), past part: later performed steps of ta in the same
			// B(lv) segment also precede b.
			for s := oc.stepSeq[a] + 1; s <= len(oc.perTxn[ta]); s++ {
				if c := oc.coarse[ta][s-2]; c != 0 && c <= lv {
					break // boundary between s-1 and s closes the segment
				}
				g2 := oc.perTxn[ta][s-1]
				if !oc.reach[g2].has(b) {
					oc.queue = append(oc.queue, [2]int{g2, b})
				}
			}
			// Rule (b), future part: pin b if a's segment is still open.
			if oc.segmentOpen(ta, oc.stepSeq[a], lv) && !oc.pinned[ta][lv].has(b) {
				oc.pinned[ta][lv].set(b)
				oc.trail = append(oc.trail, [3]int{ta, b, lv})
			}
		}

		oc.reach[b].forEachNotIn(oc.reach[a], func(c int) {
			oc.queue = append(oc.queue, [2]int{a, c})
		})
		oc.pred[a].forEachNotIn(oc.pred[b], func(c int) {
			oc.queue = append(oc.queue, [2]int{c, b})
		})
	}
}

// SegmentClosedAfter reports whether transaction t has crossed a boundary
// of coarseness ≤ lv at or after position seq (within its current extent):
// the condition under which a step at seq is "closed off" for a level-lv
// observer in the Section 6 delay rule.
func (oc *Online) SegmentClosedAfter(t model.TxnID, seq, lv int) bool {
	ti, ok := oc.txnIdx[t]
	if !ok || len(oc.perTxn[ti]) == 0 {
		// No live steps (never seen, or retracted in place): nothing to
		// wait for.
		return true
	}
	return !oc.segmentOpen(ti, seq, lv)
}

// collectPreds leaves in pvVisited the steps that would precede a next step
// of t on x in the coherent closure, WITHOUT mutating the closure. The
// hypothetical step's in-edges are its program predecessor and x's last
// accessor; rule (b) extends each predecessor α of another transaction u
// with u's already-performed steps in α's B(level(u,t)) segment;
// transitivity pulls in all their ancestors. Per such u it also leaves u's
// index in pvTouched, its latest member's seq in pvMax and level(u,t) in
// pvLv, and it marks the scratch a fresh preview of (t, x).
//
// Only the seeds and the rule-(b) mates go through the stack. pred rows are
// transitively closed, so a step first met in a popped step's row brings no
// predecessor the row lacks — just its transaction's entry and its own
// mates — and the row is merged by words, never re-walked member by member.
func (oc *Online) collectPreds(t model.TxnID, x model.EntityID) {
	words := (len(oc.stepTxn) + 63) >> 6
	if cap(oc.pvVisited) < words {
		oc.pvVisited = make(bitset, words)
	}
	oc.pvVisited = oc.pvVisited[:words]
	clear(oc.pvVisited)
	oc.pvStack = oc.pvStack[:0]
	for _, u := range oc.pvTouched {
		oc.pvMax[u] = 0
	}
	oc.pvTouched = oc.pvTouched[:0]
	oc.pvTxn, oc.pvEnt, oc.pvFresh = t, x, true
	if n := len(oc.txns); len(oc.pvMax) < n {
		oc.pvMax = append(oc.pvMax, make([]int, n-len(oc.pvMax))...)
		oc.pvLv = append(oc.pvLv, make([]int, n-len(oc.pvLv))...)
	}
	self := -1
	if ti, ok := oc.txnIdx[t]; ok {
		self = ti
		if n := len(oc.perTxn[ti]); n > 0 {
			oc.pvVisit(oc.perTxn[ti][n-1])
		}
	}
	if e, ok := oc.entSlot[x]; ok {
		if ch := oc.chains[e]; len(ch) > 0 && !oc.pvVisited.has(ch[len(ch)-1]) {
			oc.pvVisit(ch[len(ch)-1])
		}
	}
	for len(oc.pvStack) > 0 {
		g := oc.pvStack[len(oc.pvStack)-1]
		oc.pvStack = oc.pvStack[:len(oc.pvStack)-1]
		oc.pvNote(g, self, t)
		for wi, w := range oc.pred[g] {
			w &^= oc.pvVisited[wi]
			oc.pvVisited[wi] |= w
			for ; w != 0; w &= w - 1 {
				oc.pvNote(wi<<6+bits.TrailingZeros64(w), self, t)
			}
		}
	}
}

// pvVisit marks the unvisited step g and queues it for its pred row.
func (oc *Online) pvVisit(g int) {
	oc.pvVisited[g>>6] |= 1 << uint(g&63)
	oc.pvStack = append(oc.pvStack, g)
}

// pvNote records visited step g under its transaction u and visits g's
// rule-(b) mates: the performed steps after g in its B(level(u,t)) segment
// would also precede the new step. The walk stops at a visited mate, whose
// own walk covers the rest of the segment.
func (oc *Online) pvNote(g, self int, t model.TxnID) {
	u := oc.stepTxn[g]
	if u == self {
		return
	}
	seq := oc.stepSeq[g]
	// seq is 1-based, so pvMax[u] == 0 means "not yet seen".
	if oc.pvMax[u] == 0 {
		oc.pvTouched = append(oc.pvTouched, u)
		oc.pvLv[u] = oc.level(oc.txns[u], t)
	}
	if seq > oc.pvMax[u] {
		oc.pvMax[u] = seq
	}
	lv := oc.pvLv[u]
	for s := seq + 1; s <= len(oc.perTxn[u]); s++ {
		if c := oc.coarse[u][s-2]; c != 0 && c <= lv {
			break // boundary between s-1 and s closes the segment
		}
		m := oc.perTxn[u][s-1]
		if oc.pvVisited.has(m) {
			break
		}
		oc.pvVisit(m)
	}
}

// ForEachPredOfNewStep reports, per transaction, the latest step (max seq)
// that would precede a hypothetical next step of t on x in the coherent
// closure, WITHOUT mutating the closure: it calls f once per predecessor
// transaction with that seq, in no particular order. The set is
// collectPreds's, and an AddStep of this step with no mutation in between
// inserts it from the same traversal, so what a control previews is what
// it gets (successor pins do not affect a predecessor set). All traversal
// state lives in scratch on oc, so steady-state calls allocate nothing; the
// callback may read oc but must neither mutate it nor preview again.
func (oc *Online) ForEachPredOfNewStep(t model.TxnID, x model.EntityID, f func(u model.TxnID, maxSeq int)) {
	if len(oc.stepTxn) == 0 {
		return
	}
	oc.collectPreds(t, x)
	for _, u := range oc.pvTouched {
		f(oc.txns[u], oc.pvMax[u])
	}
}

// ForEachOpenPred is the Section 6 delay rule's test, written once for every
// closure gate: it calls f once per transaction u with a step that would
// precede a next step of t on x in the coherent closure, and whose latest
// such step is still in an open B(level(u,t)) segment — the predecessors t
// must wait for. Whether u has finished is the caller's to decide. t itself
// is never reported, and neither is a transaction with no live steps (it
// has nothing to wait for, as in SegmentClosedAfter). The traversal is
// ForEachPredOfNewStep's, with the same contract: no allocation in steady
// state, and the callback may read oc but must neither mutate it nor
// preview again.
func (oc *Online) ForEachOpenPred(t model.TxnID, x model.EntityID, f func(u model.TxnID)) {
	if len(oc.stepTxn) == 0 {
		return
	}
	oc.collectPreds(t, x)
	for _, u := range oc.pvTouched {
		if oc.pvOpen(u) {
			f(oc.txns[u])
		}
	}
}

// pvOpen reports whether the latest step of transaction u in the current
// preview is still in an open B(level(u,t)) segment: the step u would pin
// the previewed one behind (linkSink), and the step the delay rule waits on
// (ForEachOpenPred). A previewed transaction has live steps, since only live
// steps are visited.
func (oc *Online) pvOpen(u int) bool {
	return oc.segmentOpen(u, oc.pvMax[u], oc.pvLv[u])
}
