package coherent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mla/internal/model"
	"mla/internal/nest"
)

// twins is two Onlines driven through the same history: got is the closure
// under test, ref the reference it must be indistinguishable from — on
// everything check compares.
type twins struct {
	t        *testing.T
	got, ref *Online
	active   []model.TxnID // uncommitted transactions
	ents     []model.EntityID
	where    string

	// check compares the twins after an operation on focus; all asks for
	// the costly parts too. step is addStep unless a test wraps it to look
	// at the twins on either side of an insertion. burst > 0 makes a fresh
	// transaction take that many steps in a row, twice per history. commit
	// retires active[i] on both twins and puts a fresh transaction in its
	// place.
	check  func(focus model.TxnID, all bool)
	step   func(id model.TxnID, x model.EntityID) bool
	burst  int
	commit func(i int)
}

// addStep appends the step to both twins and returns their common verdict.
// A rejected step must leave got's dump as it was (check compares ref with
// got after every operation).
func (w *twins) addStep(id model.TxnID, x model.EntityID) bool {
	w.t.Helper()
	var before *Online
	if !sinkStep(w.got, id) { // a closure sink never closes a cycle
		before = snapshot(w.got)
	}
	ok, okRef := w.got.AddStep(id, x), w.ref.AddStep(id, x)
	if ok != okRef {
		w.t.Fatalf("%s: AddStep(%s,%s) got=%v reference=%v", w.where, id, x, ok, okRef)
	}
	if !ok && dump(w.got, w.active, w.ents) != dump(before, w.active, w.ents) {
		w.t.Fatalf("%s: the rejected step of %s on %s left a trace", w.where, id, x)
	}
	return ok
}

// stepOf finds the slot of t's seq-th step in oc, or -1.
func stepOf(oc *Online, t model.TxnID, seq int) int {
	ti, ok := oc.txnIdx[t]
	if !ok || seq > len(oc.perTxn[ti]) {
		return -1
	}
	return oc.perTxn[ti][seq-1]
}

// compareSealed checks every observable a sealing closure (got) must share
// with a reference that only marks commits (ref.noSeal): the reference
// keeps every committed step, so it is the closure the sealing one must be
// indistinguishable from — on everything a scheduler can still ask. The
// preview is the costly part: it always runs for focus (the transaction
// just operated on) and for the others only when all is set.
func (w *twins) compareSealed(focus model.TxnID, all bool) {
	w.t.Helper()
	s, k := w.got, w.ref
	isActive := make(map[model.TxnID]bool, len(w.active))
	for _, id := range w.active {
		isActive[id] = true
	}
	for _, id := range w.active {
		ext := s.Extent(id)
		if ke := k.Extent(id); ext != ke {
			w.t.Fatalf("%s: extent(%s) sealing=%d reference=%d", w.where, id, ext, ke)
		}
		for seq := 1; seq <= ext+1; seq++ {
			for lv := 1; lv <= s.k; lv++ {
				if a, b := s.SegmentClosedAfter(id, seq, lv), k.SegmentClosedAfter(id, seq, lv); a != b {
					w.t.Fatalf("%s: SegmentClosedAfter(%s,%d,%d) sealing=%v reference=%v", w.where, id, seq, lv, a, b)
				}
			}
		}
		// The preview, restricted to uncommitted predecessors: committed
		// ones are closed at every level and never block anybody.
		for _, x := range w.ents {
			if id != focus && !all {
				break
			}
			got, want := map[model.TxnID]int{}, map[model.TxnID]int{}
			s.ForEachPredOfNewStep(id, x, func(u model.TxnID, seq int) {
				if isActive[u] {
					got[u] = seq
				}
			})
			k.ForEachPredOfNewStep(id, x, func(u model.TxnID, seq int) {
				if isActive[u] {
					want[u] = seq
				}
			})
			same := len(got) == len(want)
			for u, seq := range got {
				same = same && want[u] == seq
			}
			if !same {
				w.t.Fatalf("%s: preview(%s,%s) sealing=%v reference=%v", w.where, id, x, got, want)
			}
		}
	}
	// reach between the steps still live in the sealing closure must be the
	// reference's reach between the same steps.
	var live []int
	for g := range s.stepTxn {
		if !s.dead.has(g) {
			live = append(live, g)
		}
	}
	if len(live) != s.Steps() {
		w.t.Fatalf("%s: %d untombstoned slots but Steps()=%d", w.where, len(live), s.Steps())
	}
	ref := make([]int, len(live))
	for i, g := range live {
		id := s.txns[s.stepTxn[g]]
		if ref[i] = stepOf(k, id, s.stepSeq[g]); ref[i] < 0 {
			w.t.Fatalf("%s: sealing closure holds %s#%d, the reference does not", w.where, id, s.stepSeq[g])
		}
	}
	for i, g := range live {
		for j, h := range live {
			if a, b := s.reach[g].has(h), k.reach[ref[i]].has(ref[j]); a != b {
				w.t.Fatalf("%s: reach %s#%d -> %s#%d sealing=%v reference=%v", w.where,
					s.txns[s.stepTxn[g]], s.stepSeq[g], s.txns[s.stepTxn[h]], s.stepSeq[h], a, b)
			}
		}
	}
	if s.Slots() > 2*s.Steps()+compactSlack && s.Retractions() == 0 {
		// Retraction tombstones without compacting; absent any, the seal's
		// own trigger must hold the bound.
		w.t.Fatalf("%s: %d slots for %d live steps", w.where, s.Slots(), s.Steps())
	}
}

// historyTally counts what the randomized histories exercised, so a test can
// show it was not vacuous.
type historyTally struct {
	sealed, lingered, between, afterAbort, rejected, partners int
}

// playHistory drives fresh twins through the seed's randomized history over
// a random nest: steps, cuts, commits at random points, rejected steps
// (each must leave got's dump as it was; sometimes a commit arrives before
// the rollback, and sometimes the rollback takes the cycle partner too),
// full drops (sink retraction or replay) and partial keeps (always replay).
// configure sets the twins' test-only switches and hooks; check runs after
// every operation. got must be a sealing closure: its seals feed the tally.
func playHistory(t *testing.T, seed int64, tally *historyTally, configure func(w *twins)) {
	rng := rand.New(rand.NewSource(seed))
	k := 2 + rng.Intn(3)
	n := nest.New(k)
	born := 0
	fresh := func() model.TxnID {
		id := model.TxnID(fmt.Sprintf("t%d", born))
		mid := make([]string, k-2)
		for l := range mid {
			mid[l] = fmt.Sprintf("c%d", rng.Intn(2+l))
		}
		n.Add(id, mid...)
		born++
		return id
	}
	w := &twins{t: t, got: NewOnline(k, n.Level), ref: NewOnline(k, n.Level)}
	w.step = w.addStep
	w.got.OnSeal = func(model.TxnID) { tally.sealed++ }
	// Half the histories force every rollback down the replay path.
	w.got.forceReplay = seed%2 == 0
	w.ref.forceReplay = w.got.forceReplay
	configure(w)
	for i := 0; i < 3+rng.Intn(3); i++ {
		w.ents = append(w.ents, model.EntityID(fmt.Sprintf("x%d", i)))
	}
	width := 2 + rng.Intn(4)
	for len(w.active) < width {
		w.active = append(w.active, fresh())
	}
	commit := func(i int) {
		id := w.active[i]
		w.active[i] = fresh()
		before := tally.sealed
		w.got.Retire(id)
		w.ref.Retire(id)
		if tally.sealed == before {
			tally.lingered++
		}
	}
	w.commit = commit
	drop := func(victims map[model.TxnID]bool) {
		before := tally.sealed
		w.got.Rebuild(victims)
		w.ref.Rebuild(victims)
		if tally.sealed > before {
			tally.afterAbort++
		}
	}
	// step reports whether active[i]'s step was accepted; a rejected one's
	// transaction is dropped.
	step := func(i int) bool {
		id, x := w.active[i], w.ents[rng.Intn(len(w.ents))]
		if w.step(id, x) {
			return true
		}
		tally.rejected++
		if j := rng.Intn(len(w.active)); j != i && w.got.Extent(w.active[j]) > 0 {
			// A commit lands between the rejection and the rollback.
			commit(j)
			w.check(id, false)
			tally.between++
		}
		// The stepping transaction is the deterministic victim; half the
		// time the witness's other uncommitted transaction goes with it.
		victims := map[model.TxnID]bool{id: true}
		if rng.Intn(2) == 0 {
			for _, u := range w.got.CycleTxns() {
				if u != id && slices.Contains(w.active, u) {
					victims[u] = true
					tally.partners++
				}
			}
		}
		drop(victims)
		return false
	}

	for op := 0; op < 120; op++ {
		w.where = fmt.Sprintf("seed=%d op=%d", seed, op)
		i := rng.Intn(len(w.active))
		id := w.active[i]
		switch r := rng.Intn(20); {
		case w.burst > 0 && (op == 40 || op == 80): // a lone long transaction
			commit(i)
			for s := 0; s < w.burst && step(i); s++ {
				if rng.Intn(4) == 0 {
					c := 2 + rng.Intn(k)
					w.got.AddCut(w.active[i], c)
					w.ref.AddCut(w.active[i], c)
				}
				w.check(w.active[i], false)
			}
		case r <= 10:
			step(i)
		case r <= 13: // cut
			c := 2 + rng.Intn(k)
			w.got.AddCut(id, c)
			w.ref.AddCut(id, c)
		case r <= 16: // commit
			commit(i)
		case r <= 18: // full drop
			drop(map[model.TxnID]bool{id: true})
		default: // partial keep
			keep := 0
			if ext := w.got.Extent(id); ext > 0 {
				keep = rng.Intn(ext)
			}
			w.got.RebuildPartial(map[model.TxnID]int{id: keep})
			w.ref.RebuildPartial(map[model.TxnID]int{id: keep})
		}
		w.check(w.active[i], op%4 == 0)
	}
}

// TestSealEquivalence drives a sealing Online and a reference that only
// marks commits (noSeal) through randomized histories (playHistory). They
// must agree on every AddStep verdict and, after every operation, on
// everything compareSealed checks. The counters at the end keep it from
// being vacuous: transactions were sealed while others stayed live, commits
// landed between a rejected step and its rollback, rollbacks took a cycle
// partner along, and rollbacks released lingering commits. These histories
// go quiescent or replay too often for tombstones to pile up;
// TestSealCompaction covers the compaction trigger.
func TestSealEquivalence(t *testing.T) {
	const histories = 2000
	var tally historyTally
	for seed := int64(1); seed <= histories; seed++ {
		playHistory(t, seed, &tally, func(w *twins) {
			w.ref.noSeal = true
			w.check = w.compareSealed
		})
	}
	t.Logf("%d histories: %d sealed, %d commits lingered, %d commits between a rejection and its rollback, %d sealed after a rollback, %d rejected steps, %d partners dropped",
		histories, tally.sealed, tally.lingered, tally.between, tally.afterAbort, tally.rejected, tally.partners)
	for name, n := range map[string]int{"sealed": tally.sealed, "lingered": tally.lingered, "between": tally.between,
		"sealed after a rollback": tally.afterAbort, "rejected": tally.rejected, "partners": tally.partners} {
		if n == 0 {
			t.Errorf("no history exercised %q: the equivalence test is vacuous there", name)
		}
	}
}

// TestSealCompaction runs a pipeline in which the closure is never empty —
// each transaction takes its first step before its predecessor commits —
// so tombstones can only be reclaimed by compaction, never by the quiescent
// reset. The first 300 transactions run against the never-sealing
// reference (every compaction is followed by a full comparison); the
// sealing closure then goes on alone to 10,000 sealed steps, after which
// the slot count must still be bounded by the live width, and the
// transaction table and event log with it.
func TestSealCompaction(t *testing.T) {
	const txns, twinned = 5000, 300
	n := nest.New(2)
	w := &twins{t: t, got: NewOnline(2, n.Level), ref: NewOnline(2, n.Level)}
	w.ref.noSeal = true
	oc := w.got
	sealed := 0
	oc.OnSeal = func(model.TxnID) { sealed++ }
	for e := 0; e < 8; e++ {
		w.ents = append(w.ents, model.EntityID(fmt.Sprintf("e%d", e)))
	}
	id := func(i int) model.TxnID { return model.TxnID(fmt.Sprintf("t%d", i)) }
	step := func(i, e int) {
		t.Helper()
		x := w.ents[e%len(w.ents)]
		if !oc.AddStep(id(i), x) || (i < twinned && !w.ref.AddStep(id(i), x)) {
			t.Fatalf("pipeline step of t%d closed a cycle", i)
		}
	}
	n.Add(id(0))
	step(0, 0)
	compactions := 0
	for i := 0; i < txns; i++ {
		w.where = fmt.Sprintf("t%d", i)
		step(i, i+1)
		n.Add(id(i + 1))
		step(i+1, i+1) // a successor of t_i's second step, live after the retire
		before := oc.Slots()
		oc.Retire(id(i))
		if oc.Slots() < before {
			compactions++
		}
		if i+1 < twinned {
			w.ref.Retire(id(i))
			w.active = []model.TxnID{id(i + 1)}
			w.compareSealed(id(i+1), true)
		}
		if oc.Steps() != 1 || oc.Slots() > 2*oc.Steps()+compactSlack {
			t.Fatalf("after retiring t%d: %d slots for %d live steps, want 1 live", i, oc.Slots(), oc.Steps())
		}
		if len(oc.txns) > oc.Slots()+1 || len(oc.events) != 1 {
			t.Fatalf("after retiring t%d: %d txn slots, %d events", i, len(oc.txns), len(oc.events))
		}
	}
	if sealed != txns || compactions < txns*2/(compactSlack+2)-1 {
		t.Fatalf("sealed %d of %d transactions over %d compactions", sealed, txns, compactions)
	}
	n.Add("probe")
	if got := predOfNewStep(oc, "probe", w.ents[txns%len(w.ents)]); len(got) != 1 || got[id(txns)] != 1 {
		t.Fatalf("preview after %d sealed steps = %v, want only t%d#1", 2*txns, got, txns)
	}
}
