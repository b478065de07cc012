package coherent

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mla/internal/model"
	"mla/internal/nest"
)

// sameSet reports whether two bitsets hold the same elements (their lengths
// may differ by trailing zero words).
func sameSet(a, b bitset) bool {
	return a.subsetOf(b) && b.subsetOf(a)
}

// compareSlots checks that the twins hold the same closure slot for slot:
// they run the same operations, so seals, retractions and replays number
// their steps and transactions alike, and reach, pred and pinned must be
// the same sets at the same indices.
func (w *twins) compareSlots(model.TxnID, bool) {
	w.t.Helper()
	a, b := w.got, w.ref
	if len(a.stepTxn) != len(b.stepTxn) || a.Steps() != b.Steps() || len(a.txns) != len(b.txns) ||
		!sameSet(a.dead, b.dead) || a.cyclic != b.cyclic {
		w.t.Fatalf("%s: got %d slots/%d live/%d txns/cyclic=%v, reference %d/%d/%d/%v", w.where,
			len(a.stepTxn), a.Steps(), len(a.txns), a.cyclic, len(b.stepTxn), b.Steps(), len(b.txns), b.cyclic)
	}
	for g := range a.stepTxn {
		if !sameSet(a.reach[g], b.reach[g]) {
			w.t.Fatalf("%s: reach[%d] got=%v reference=%v", w.where, g, a.reach[g], b.reach[g])
		}
		if !sameSet(a.pred[g], b.pred[g]) {
			w.t.Fatalf("%s: pred[%d] got=%v reference=%v", w.where, g, a.pred[g], b.pred[g])
		}
	}
	for ti := range a.txns {
		if len(a.pinned[ti]) != len(b.pinned[ti]) {
			w.t.Fatalf("%s: pinned[%d] has %d levels, reference %d", w.where, ti, len(a.pinned[ti]), len(b.pinned[ti]))
		}
		for lv := range a.pinned[ti] {
			if !sameSet(a.pinned[ti][lv], b.pinned[ti][lv]) {
				w.t.Fatalf("%s: pinned[%d][%d] got=%v reference=%v", w.where, ti, lv, a.pinned[ti][lv], b.pinned[ti][lv])
			}
		}
	}
}

// sinkTally counts the insertions the sink histories made, by path.
type sinkTally struct {
	historyTally
	closedForm, pairwise int
}

// sinkStep reports whether oc inserts t's next step in closed form.
func sinkStep(oc *Online, t model.TxnID) bool {
	ti, known := oc.txnIdx[t]
	return !known || oc.unpinned(ti)
}

// playSinkHistories drives a closure that inserts unpinned transactions'
// steps in closed form (linkSink) and a twin sent down process always
// (noSink) through playHistory's histories, with lone 64-step transactions
// added. Every insertion is classified by the path got takes; preview,
// when set, also runs around each one, and may mutate both twins first.
func playSinkHistories(t *testing.T, histories int, preview func(w *twins, id model.TxnID, x model.EntityID, closedForm bool) func()) sinkTally {
	var tally sinkTally
	for seed := int64(1); seed <= int64(histories); seed++ {
		playHistory(t, seed, &tally.historyTally, func(w *twins) {
			w.ref.noSink = true
			w.burst = 64
			w.check = w.compareSlots
			w.step = func(id model.TxnID, x model.EntityID) bool {
				var after func()
				if preview != nil {
					after = preview(w, id, x, sinkStep(w.got, id))
				}
				closedForm := sinkStep(w.got, id)
				ok := w.addStep(id, x)
				switch {
				case !ok:
					if closedForm {
						t.Fatalf("%s: a closed-form insert of %s on %s closed a cycle", w.where, id, x)
					}
					if got, ref := w.got.CycleTxns(), w.ref.CycleTxns(); !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: CycleTxns got=%v reference=%v", w.where, got, ref)
					}
				case closedForm:
					tally.closedForm++
				default:
					tally.pairwise++
				}
				if ok && after != nil {
					after()
				}
				return ok
			}
		})
	}
	return tally
}

// TestSinkInsertEquivalence: the closed-form insertion is the general rule.
// After every operation the twins agree on reach, pred and pinned slot for
// slot, on every AddStep verdict, and on the cycle witness of every
// rejected step (rejections only ever come from process, on both sides).
// The counters keep it from being vacuous.
func TestSinkInsertEquivalence(t *testing.T) {
	const histories = 400
	tally := playSinkHistories(t, histories, nil)
	t.Logf("%d histories: %d closed-form inserts, %d pairwise inserts, %d rejected steps, %d sealed",
		histories, tally.closedForm, tally.pairwise, tally.rejected, tally.sealed)
	for name, n := range map[string]int{"closed-form inserts": tally.closedForm, "pairwise inserts": tally.pairwise,
		"rejected": tally.rejected, "sealed": tally.sealed} {
		if n == 0 {
			t.Errorf("no history exercised %q: the equivalence test is vacuous there", name)
		}
	}
}

// TestPreviewIsInsertedPred: what Request previews is what Performed
// inserts. For every closed-form insert, the (transaction, max seq) pairs
// ForEachPredOfNewStep reported immediately before equal the
// per-transaction max over the new step's pred row immediately after; the
// pairwise twin's preview must agree too. The insert links the preview's
// own traversal here, so this checks the handoff with nothing in between;
// TestStalePreviewEquivalence puts mutations between the two.
func TestPreviewIsInsertedPred(t *testing.T) {
	checked := 0
	playSinkHistories(t, 100, func(w *twins, id model.TxnID, x model.EntityID, closedForm bool) func() {
		if !closedForm {
			return nil
		}
		previewed := predOfNewStep(w.got, id, x)
		if ref := predOfNewStep(w.ref, id, x); !reflect.DeepEqual(previewed, ref) {
			t.Fatalf("%s: preview(%s,%s) got=%v reference=%v", w.where, id, x, previewed, ref)
		}
		return func() {
			oc := w.got
			inserted := map[model.TxnID]int{}
			oc.pred[len(oc.stepTxn)-1].forEach(func(a int) {
				if u := oc.txns[oc.stepTxn[a]]; u != id && oc.stepSeq[a] > inserted[u] {
					inserted[u] = oc.stepSeq[a]
				}
			})
			if !reflect.DeepEqual(previewed, inserted) {
				t.Fatalf("%s: %s on %s previewed %v, inserted %v", w.where, id, x, previewed, inserted)
			}
			checked++
		}
	})
	if checked == 0 {
		t.Fatal("no closed-form insert was checked")
	}
	t.Logf("%d closed-form inserts checked", checked)
}

// TestStalePreviewEquivalence: an insert stays exact whatever falls between
// it and its preview. got previews every step; then, some of the time,
// one mutation lands on both twins before the previewed step is added:
// another transaction's step (rolled back if it closes a cycle),
// a cut, another transaction's commit, or a rollback. ref never previews.
// After every operation the twins agree slot for slot, as in
// TestSinkInsertEquivalence, and the counters keep every kind non-vacuous.
func TestStalePreviewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := map[string]int{}
	tally := playSinkHistories(t, 400, func(w *twins, id model.TxnID, x model.EntityID, _ bool) func() {
		w.got.ForEachPredOfNewStep(id, x, func(model.TxnID, int) {})
		j := rng.Intn(len(w.active))
		for w.active[j] == id {
			j = (j + 1) % len(w.active)
		}
		other, either := w.active[j], id
		if rng.Intn(2) == 0 {
			either = w.active[j]
		}
		switch rng.Intn(10) {
		case 0: // another transaction's step, often on the previewed entity
			y := x
			if rng.Intn(2) == 0 {
				y = w.ents[rng.Intn(len(w.ents))]
			}
			if w.addStep(other, y) {
				kinds["step"]++
				break
			}
			w.got.Rebuild(map[model.TxnID]bool{other: true})
			w.ref.Rebuild(map[model.TxnID]bool{other: true})
			kinds["rejected step"]++
		case 1:
			c := 2 + rng.Intn(w.got.k)
			w.got.AddCut(either, c)
			w.ref.AddCut(either, c)
			kinds["cut"]++
		case 2:
			w.commit(j)
			kinds["commit"]++
		case 3:
			keep := 0
			if ext := w.got.Extent(either); ext > 0 {
				keep = rng.Intn(ext)
			}
			w.got.RebuildPartial(map[model.TxnID]int{either: keep})
			w.ref.RebuildPartial(map[model.TxnID]int{either: keep})
			kinds["rollback"]++
		default:
			return nil
		}
		w.check(id, false)
		return nil
	})
	t.Logf("%d closed-form inserts, %d pairwise; mutations between a preview and its insert: %v",
		tally.closedForm, tally.pairwise, kinds)
	for _, kind := range []string{"step", "rejected step", "cut", "commit", "rollback"} {
		if kinds[kind] == 0 {
			t.Errorf("no preview was separated from its insert by a %s: the test is vacuous there", kind)
		}
	}
}

// delayRuleReference is the delay rule as the closure gates wrote it before
// ForEachOpenPred: every previewed predecessor u ≠ t whose latest preceding
// step is not closed off at level(u,t).
func delayRuleReference(oc *Online, t model.TxnID, x model.EntityID) map[model.TxnID]bool {
	open := map[model.TxnID]bool{}
	oc.ForEachPredOfNewStep(t, x, func(u model.TxnID, s int) {
		if u != t && !oc.SegmentClosedAfter(u, s, oc.level(u, t)) {
			open[u] = true
		}
	})
	return open
}

// TestOpenPredIsDelayRule: before every step of playHistory's histories, on
// both twins (a sealing closure and one that keeps every commit),
// ForEachOpenPred reports each transaction at most once and reports exactly
// the reference rule's set. The counters keep it from being vacuous: some
// previews had open predecessors, and some had predecessors the rule lets
// through because their segment is closed.
func TestOpenPredIsDelayRule(t *testing.T) {
	const histories = 600
	var tally historyTally
	blocked, passed := 0, 0
	for seed := int64(1); seed <= histories; seed++ {
		playHistory(t, seed, &tally, func(w *twins) {
			w.ref.noSeal = true
			w.check = func(model.TxnID, bool) {}
			w.step = func(id model.TxnID, x model.EntityID) bool {
				for _, oc := range []*Online{w.got, w.ref} {
					want := delayRuleReference(oc, id, x)
					got := map[model.TxnID]bool{}
					oc.ForEachOpenPred(id, x, func(u model.TxnID) {
						if got[u] {
							t.Fatalf("%s: ForEachOpenPred(%s,%s) reported %s twice", w.where, id, x, u)
						}
						got[u] = true
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: ForEachOpenPred(%s,%s) = %v, reference %v", w.where, id, x, got, want)
					}
					if len(want) > 0 {
						blocked++
					}
					if len(predOfNewStep(oc, id, x)) > len(want) {
						passed++
					}
				}
				return w.addStep(id, x)
			}
		})
	}
	t.Logf("%d histories: %d previews with open predecessors, %d with closed ones", histories, blocked, passed)
	if blocked == 0 || passed == 0 {
		t.Fatalf("vacuous: %d previews blocked, %d passed closed predecessors", blocked, passed)
	}
}

// transferFeed is the benchmark/probes.go closure feed: transfer j withdraws
// from three accounts of family j mod 16 and deposits into two accounts of
// another family, cutting at level 2 after the last withdrawal and at level
// 3 elsewhere (no cut after the last step).
type transferFeed struct {
	nest *nest.Nest
	next int
}

func (f *transferFeed) txn() (model.TxnID, [5]model.EntityID) {
	j := f.next
	f.next++
	t := model.TxnID(fmt.Sprintf("t%d", j))
	fam := j % 16
	to := (fam + 1 + j%15) % 16
	f.nest.Add(t, "cust", fmt.Sprintf("fam-%02d", fam))
	acct := func(fam, a int) model.EntityID { return model.EntityID(fmt.Sprintf("acct-%02d-%d", fam, a)) }
	return t, [5]model.EntityID{acct(fam, j%4), acct(fam, (j+1)%4), acct(fam, (j+2)%4), acct(to, j%4), acct(to, (j+1)%4)}
}

// playTransfer previews and adds one transfer's five steps with their cuts.
func playTransfer(tb testing.TB, oc *Online, t model.TxnID, ents [5]model.EntityID) {
	for s, x := range ents {
		oc.ForEachPredOfNewStep(t, x, func(model.TxnID, int) {})
		if !oc.AddStep(t, x) {
			tb.Fatalf("serial feed closed a cycle at %s step %d", t, s+1)
		}
		switch s + 1 {
		case 3:
			oc.AddCut(t, 2)
		case 5: // last step: no interior boundary follows
		default:
			oc.AddCut(t, 3)
		}
	}
}

// TestOnlineAllocBudget pins the row reuse: a closure that goes quiescent
// after every transaction — preview, five steps with their cuts, Retire —
// must keep the rows, tables, entity chains and scratch of the transaction
// before, so a warm transfer allocates nothing at all. (The feed's nest and
// names are set up outside the measured function.)
func TestOnlineAllocBudget(t *testing.T) {
	const allocCeiling = 0
	f := &transferFeed{nest: nest.New(4)}
	oc := NewOnline(4, f.nest.Level)
	type prepared struct {
		t    model.TxnID
		ents [5]model.EntityID
	}
	feed := make([]prepared, 200)
	for i := range feed {
		feed[i].t, feed[i].ents = f.txn()
	}
	i := 0
	run := func() {
		p := feed[i]
		i++
		playTransfer(t, oc, p.t, p.ents)
		oc.Retire(p.t)
		if oc.Steps() != 0 {
			t.Fatalf("closure not quiescent after %s: %d live steps", p.t, oc.Steps())
		}
	}
	for i < 50 {
		run() // warm-up: rows and scratch reach their steady size
	}
	if got := testing.AllocsPerRun(100, run); got > allocCeiling {
		t.Fatalf("%.1f allocations per quiescent transfer, budget %d: storage is not surviving the reset", got, allocCeiling)
	}
}

// BenchmarkOnlineLongTxn: one lone transaction of the given length, the
// bank audit's shape. ns/op is per step; insertion is linear in the
// transaction's length (quadratic per transaction), so the 256-step figure
// should be about 4× the 64-step one.
func BenchmarkOnlineLongTxn(b *testing.B) {
	for _, steps := range []int{64, 256} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			n := nest.New(2)
			n.Add("audit")
			ents := make([]model.EntityID, steps)
			for i := range ents {
				ents[i] = model.EntityID(fmt.Sprintf("x%d", i))
			}
			oc := NewOnline(2, n.Level)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += steps {
				for _, x := range ents {
					oc.ForEachPredOfNewStep("audit", x, func(model.TxnID, int) {})
					if !oc.AddStep("audit", x) {
						b.Fatal("a lone transaction closed a cycle")
					}
				}
				oc.Retire("audit")
			}
		})
	}
}

// BenchmarkOnlinePreviewAt1024 times the preview of a transfer's steps on a
// closure holding 1024 live steps of the transfer feed (nothing retires, as
// in the benchmark's coherent.preview_us_at_1024 probe).
func BenchmarkOnlinePreviewAt1024(b *testing.B) {
	f := &transferFeed{nest: nest.New(4)}
	oc := NewOnline(4, f.nest.Level)
	for oc.Steps() < 1024 {
		t, ents := f.txn()
		playTransfer(b, oc, t, ents)
	}
	t, ents := f.txn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oc.ForEachPredOfNewStep(t, ents[i%len(ents)], func(model.TxnID, int) {})
	}
}
