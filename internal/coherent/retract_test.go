package coherent

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mla/internal/model"
	"mla/internal/nest"
)

// dump renders every observable fact of the closure in an index-free form:
// live edges named by (txn, seq), per-transaction extents, segment-closure
// answers, and the hypothetical predecessor sets for every (txn, entity)
// pair. Incremental retraction tombstones step slots while replay compacts
// them, so raw indices can never be compared — this semantic dump is the
// equality the equivalence test checks.
func dump(oc *Online, txns []model.TxnID, ents []model.EntityID) string {
	var lines []string
	names := make([]string, len(oc.stepTxn))
	for g := range oc.stepTxn {
		if !oc.dead.has(g) {
			names[g] = string(oc.txns[oc.stepTxn[g]]) + "#" + strconv.Itoa(oc.stepSeq[g])
		}
	}
	for g := range oc.stepTxn {
		if oc.dead.has(g) {
			continue
		}
		oc.reach[g].forEach(func(h int) {
			if !oc.dead.has(h) {
				lines = append(lines, "edge "+names[g]+" -> "+names[h])
			}
		})
	}
	lines = append(lines, fmt.Sprintf("steps %d", oc.Steps()))
	for _, t := range txns {
		ext := oc.Extent(t)
		lines = append(lines, fmt.Sprintf("extent %s %d", t, ext))
		for seq := 1; seq <= ext+1; seq++ {
			for lv := 1; lv <= oc.k; lv++ {
				lines = append(lines, fmt.Sprintf("closed %s %d %d %v", t, seq, lv, oc.SegmentClosedAfter(t, seq, lv)))
			}
		}
		for _, x := range ents {
			var ks []string
			oc.ForEachPredOfNewStep(t, x, func(u model.TxnID, s int) {
				ks = append(ks, fmt.Sprintf("%s=%d", u, s))
			})
			sort.Strings(ks)
			lines = append(lines, fmt.Sprintf("pred %s %s {%s}", t, x, strings.Join(ks, ",")))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// snapshot returns a deep copy of oc's closure — everything dump reads —
// with preview scratch of its own, so dump(snapshot(oc)) is dump(oc) as it
// stood at the copy, however oc changes afterwards.
func snapshot(oc *Online) *Online {
	c := *oc
	c.txns, c.txnIdx = slices.Clone(oc.txns), maps.Clone(oc.txnIdx)
	c.stepTxn, c.stepSeq, c.stepEnt = slices.Clone(oc.stepTxn), slices.Clone(oc.stepSeq), slices.Clone(oc.stepEnt)
	c.perTxn, c.coarse, c.chains = cloneRows(oc.perTxn), cloneRows(oc.coarse), cloneRows(oc.chains)
	c.reach, c.pred, c.dead = cloneRows(oc.reach), cloneRows(oc.pred), slices.Clone(oc.dead)
	c.pinned = make([][]bitset, len(oc.pinned))
	for ti, lvs := range oc.pinned {
		c.pinned[ti] = cloneRows(lvs)
	}
	c.entSlot = maps.Clone(oc.entSlot)
	c.pvVisited, c.pvStack, c.pvMax, c.pvLv, c.pvTouched, c.pvFresh = nil, nil, nil, nil, nil, false
	return &c
}

func cloneRows[R ~[]E, E any](rows []R) []R {
	out := make([]R, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// predOfNewStep collects ForEachPredOfNewStep into a map.
func predOfNewStep(oc *Online, t model.TxnID, x model.EntityID) map[model.TxnID]int {
	out := make(map[model.TxnID]int)
	oc.ForEachPredOfNewStep(t, x, func(u model.TxnID, s int) { out[u] = s })
	return out
}

// TestRetractEquivalence drives two Onlines through identical randomized
// histories of steps, cuts, cycle rejections, and rollbacks. One is normal
// (incremental retraction whenever the fast-path conditions hold), the
// other has forceReplay set, so every rollback filters and replays. After
// every operation the two must agree on every observable: accept/reject
// verdicts, the live edge set, extents, segment closure, and hypothetical
// predecessor sets; a rejected step must leave each exactly as it was. The
// test also demands that the incremental path actually fired, including
// for the victims of rejected steps, so the equivalence is not vacuous.
func TestRetractEquivalence(t *testing.T) {
	txns := []model.TxnID{"t0", "t1", "t2", "t3", "t4"}
	ents := []model.EntityID{"x", "y", "z", "w"}
	fastPaths, rejectRetracts := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		n := nest.New(k)
		for i, id := range txns {
			mid := make([]string, k-2)
			for l := range mid {
				mid[l] = fmt.Sprintf("c%d", i%(2+l))
			}
			n.Add(id, mid...)
		}
		inc := NewOnline(k, n.Level)
		rep := NewOnline(k, n.Level)
		rep.forceReplay = true

		for op := 0; op < 200; op++ {
			id := txns[rng.Intn(len(txns))]
			switch r := rng.Intn(10); {
			case r <= 5: // step
				x := ents[rng.Intn(len(ents))]
				incBefore, repBefore := snapshot(inc), snapshot(rep)
				okI := inc.AddStep(id, x)
				okR := rep.AddStep(id, x)
				if okI != okR {
					t.Fatalf("seed=%d op=%d: AddStep(%s,%s) incremental=%v replay=%v", seed, op, id, x, okI, okR)
				}
				if !okI {
					if dump(inc, txns, ents) != dump(incBefore, txns, ents) || dump(rep, txns, ents) != dump(repBefore, txns, ents) {
						t.Fatalf("seed=%d op=%d: the rejected AddStep(%s,%s) left a trace", seed, op, id, x)
					}
					// Both reject: drop the stepping transaction, and half
					// the time the incremental twin's cycle partner too — the
					// same victims on both twins.
					victims := map[model.TxnID]bool{id: true}
					if rng.Intn(2) == 0 {
						for _, u := range inc.CycleTxns() {
							victims[u] = true
						}
					}
					before := inc.Retractions()
					inc.Rebuild(victims)
					rep.Rebuild(victims)
					if inc.Retractions() > before {
						rejectRetracts++
					}
				}
			case r <= 7: // cut
				c := 2 + rng.Intn(k)
				inc.AddCut(id, c)
				rep.AddCut(id, c)
			case r == 8: // full drop (retraction candidate)
				before := inc.Retractions()
				inc.Rebuild(map[model.TxnID]bool{id: true})
				rep.Rebuild(map[model.TxnID]bool{id: true})
				if inc.Retractions() > before {
					fastPaths++
				}
			default: // partial keep (always a replay, on both)
				keep := 0
				if ext := inc.Extent(id); ext > 0 {
					keep = rng.Intn(ext)
				}
				inc.RebuildPartial(map[model.TxnID]int{id: keep})
				rep.RebuildPartial(map[model.TxnID]int{id: keep})
			}
			if got, want := dump(inc, txns, ents), dump(rep, txns, ents); got != want {
				t.Fatalf("seed=%d op=%d: closures diverged\nincremental:\n%s\n\nreplay:\n%s", seed, op, got, want)
			}
		}
	}
	if fastPaths == 0 || rejectRetracts == 0 {
		t.Fatalf("incremental retraction fired %d times on a drop, %d on a rejection's victims: the equivalence test is vacuous",
			fastPaths, rejectRetracts)
	}
	t.Logf("incremental fast paths taken: %d on a drop, %d on a rejection's victims", fastPaths, rejectRetracts)
}

// TestRetractFallsBackOnLiveSuccessor builds a history where the victim's
// step has a live closure-successor (a later accessor of the same entity),
// so retraction would be inexact; RebuildPartial must take the replay path
// and still produce the right closure.
func TestRetractFallsBackOnLiveSuccessor(t *testing.T) {
	n := nest.New(2)
	for _, id := range []model.TxnID{"a", "b", "c"} {
		n.Add(id)
	}
	oc := NewOnline(2, n.Level)
	oc.AddStep("a", "x") // a#1
	oc.AddStep("b", "x") // b#1: a#1 -> b#1
	oc.AddStep("c", "x") // c#1: b#1 -> c#1
	before := oc.Retractions()
	// b's step reaches live c#1 — the sink condition fails.
	oc.Rebuild(map[model.TxnID]bool{"b": true})
	if oc.Retractions() != before {
		t.Fatal("retraction fired despite a live closure-successor")
	}
	if oc.Steps() != 2 {
		t.Fatalf("steps = %d, want 2", oc.Steps())
	}
	// After the replay, a#1 -> c#1 is the surviving entity edge.
	pred := predOfNewStep(oc, "b", "x")
	if pred["a"] != 1 || pred["c"] != 1 {
		t.Fatalf("pred after fallback = %v", pred)
	}
}

// TestRetractSinkVictim drops the newest transaction (a closure-sink by
// construction) and checks the fast path fires and leaves the exact state
// a replay would: the entity's last accessor reverts, and the victim can
// restart cleanly.
func TestRetractSinkVictim(t *testing.T) {
	n := nest.New(2)
	for _, id := range []model.TxnID{"a", "b"} {
		n.Add(id)
	}
	oc := NewOnline(2, n.Level)
	oc.AddStep("a", "x")
	oc.AddStep("b", "x") // b is the newest accessor: a sink
	oc.AddStep("b", "y")
	before := oc.Retractions()
	oc.Rebuild(map[model.TxnID]bool{"b": true})
	if oc.Retractions() != before+1 {
		t.Fatal("sink drop did not take the incremental path")
	}
	if oc.Steps() != 1 || oc.Extent("b") != 0 {
		t.Fatalf("steps=%d extent(b)=%d after retraction", oc.Steps(), oc.Extent("b"))
	}
	if !oc.SegmentClosedAfter("b", 1, 2) {
		t.Fatal("retracted transaction still reported as open")
	}
	// x's last accessor is a#1 again; a new b step depends on it.
	if pred := predOfNewStep(oc, "b", "x"); pred["a"] != 1 {
		t.Fatalf("pred after retraction = %v", pred)
	}
	// The victim restarts: same txn, fresh seq numbering.
	if !oc.AddStep("b", "x") {
		t.Fatal("restart step rejected")
	}
	if oc.Extent("b") != 1 {
		t.Fatalf("restarted extent = %d", oc.Extent("b"))
	}
}
