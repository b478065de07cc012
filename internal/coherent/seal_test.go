package coherent

import (
	"fmt"
	"math/rand"
	"testing"

	"mla/internal/model"
	"mla/internal/nest"
)

// sealTwins is a sealing Online and a reference that only marks commits
// (noSeal), driven through the same history. The reference keeps every
// committed step, so it is the closure the sealing one must be
// indistinguishable from — on everything a scheduler can still ask.
type sealTwins struct {
	t          *testing.T
	seal, keep *Online
	active     []model.TxnID // uncommitted transactions
	ents       []model.EntityID
	where      string
}

// stepOf finds the slot of t's seq-th step in oc, or -1.
func stepOf(oc *Online, t model.TxnID, seq int) int {
	ti, ok := oc.txnIdx[t]
	if !ok || seq > len(oc.perTxn[ti]) {
		return -1
	}
	return oc.perTxn[ti][seq-1]
}

// compare checks every observable the twins must share after an operation.
// The preview is the costly part: it always runs for focus (the transaction
// just operated on) and for the others only when all is set.
func (w *sealTwins) compare(focus model.TxnID, all bool) {
	w.t.Helper()
	s, k := w.seal, w.keep
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

// TestSealEquivalence drives the twins through randomized histories over
// random nests: steps, cuts, commits at random points, rejected steps
// (PopStep, sometimes with a commit arriving before the Rebuild), full
// drops (sink retraction or replay) and partial keeps (always replay).
// They must agree on every AddStep verdict and, after every operation, on
// everything compare checks. The counters at the end keep it from being
// vacuous: transactions were sealed while others stayed live, sweeps were
// deferred behind a dirty relation, and rollbacks released lingering
// commits. These histories go quiescent or replay too often for tombstones
// to pile up; TestSealCompaction covers the compaction trigger.
func TestSealEquivalence(t *testing.T) {
	const histories = 2000
	var sealedTxns, lingered, deferred, afterAbort, rejected int
	for seed := int64(1); seed <= histories; seed++ {
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
		w := &sealTwins{t: t, seal: NewOnline(k, n.Level), keep: NewOnline(k, n.Level)}
		w.keep.noSeal = true
		w.seal.OnSeal = func(model.TxnID) { sealedTxns++ }
		// Half the histories force every rollback down the replay path.
		w.seal.forceReplay = seed%2 == 0
		w.keep.forceReplay = w.seal.forceReplay
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
			before := sealedTxns
			w.seal.Retire(id)
			w.keep.Retire(id)
			if sealedTxns == before {
				lingered++
			}
		}
		drop := func(id model.TxnID) {
			before := sealedTxns
			w.seal.Rebuild(map[model.TxnID]bool{id: true})
			w.keep.Rebuild(map[model.TxnID]bool{id: true})
			if sealedTxns > before {
				afterAbort++
			}
		}

		for op := 0; op < 120; op++ {
			w.where = fmt.Sprintf("seed=%d op=%d", seed, op)
			i := rng.Intn(len(w.active))
			id := w.active[i]
			switch r := rng.Intn(20); {
			case r <= 10: // step
				x := w.ents[rng.Intn(len(w.ents))]
				okS, okK := w.seal.AddStep(id, x), w.keep.AddStep(id, x)
				if okS != okK {
					t.Fatalf("%s: AddStep(%s,%s) sealing=%v reference=%v", w.where, id, x, okS, okK)
				}
				if !okS {
					rejected++
					w.seal.PopStep()
					w.keep.PopStep()
					if j := rng.Intn(len(w.active)); j != i && w.seal.Extent(w.active[j]) > 0 {
						// A commit lands between the rejection and the
						// rollback: the sweep must wait for the Rebuild.
						before := sealedTxns
						commit(j)
						if sealedTxns != before {
							t.Fatalf("%s: sealed through a dirty relation", w.where)
						}
						deferred++
					}
					drop(id) // the stepping transaction: a deterministic victim
				}
			case r <= 13: // cut
				c := 2 + rng.Intn(k)
				w.seal.AddCut(id, c)
				w.keep.AddCut(id, c)
			case r <= 16: // commit
				commit(i)
			case r <= 18: // full drop
				drop(id)
			default: // partial keep
				keep := 0
				if ext := w.seal.Extent(id); ext > 0 {
					keep = rng.Intn(ext)
				}
				w.seal.RebuildPartial(map[model.TxnID]int{id: keep})
				w.keep.RebuildPartial(map[model.TxnID]int{id: keep})
			}
			w.compare(w.active[i], op%4 == 0)
		}
	}
	t.Logf("%d histories: %d sealed, %d commits lingered, %d sweeps deferred, %d sealed after a rollback, %d rejected steps",
		histories, sealedTxns, lingered, deferred, afterAbort, rejected)
	for name, n := range map[string]int{"sealed": sealedTxns, "lingered": lingered, "deferred": deferred,
		"sealed after a rollback": afterAbort, "rejected": rejected} {
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
	w := &sealTwins{t: t, seal: NewOnline(2, n.Level), keep: NewOnline(2, n.Level)}
	w.keep.noSeal = true
	oc := w.seal
	sealed := 0
	oc.OnSeal = func(model.TxnID) { sealed++ }
	for e := 0; e < 8; e++ {
		w.ents = append(w.ents, model.EntityID(fmt.Sprintf("e%d", e)))
	}
	id := func(i int) model.TxnID { return model.TxnID(fmt.Sprintf("t%d", i)) }
	step := func(i, e int) {
		t.Helper()
		x := w.ents[e%len(w.ents)]
		if !oc.AddStep(id(i), x) || (i < twinned && !w.keep.AddStep(id(i), x)) {
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
			w.keep.Retire(id(i))
			w.active = []model.TxnID{id(i + 1)}
			w.compare(id(i+1), true)
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
