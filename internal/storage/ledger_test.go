package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mla/internal/model"
)

// ledgerCase is one random ledger state, described independently of the
// Ledger so the brute-force oracles below never read the ledger's own maps.
type ledgerCase struct {
	ids      []model.TxnID
	finished map[model.TxnID]bool
	decided  map[model.TxnID]bool
	gone     map[model.TxnID]bool                // removed by the host after it was observed
	deps     map[model.TxnID]map[model.TxnID]int // reader -> author -> max seq observed
	trace    []model.Step                        // every observed step, in order
}

// randomCase draws a dependency graph (cycles and self-free, any density)
// with random finished / decided / gone marks.
func randomCase(rng *rand.Rand) *ledgerCase {
	n := 2 + rng.Intn(6)
	c := &ledgerCase{
		finished: map[model.TxnID]bool{}, decided: map[model.TxnID]bool{}, gone: map[model.TxnID]bool{},
		deps: map[model.TxnID]map[model.TxnID]int{},
	}
	for i := 0; i < n; i++ {
		id := model.TxnID(fmt.Sprintf("t%d", i))
		c.ids = append(c.ids, id)
		c.finished[id] = rng.Intn(2) == 0
		c.decided[id] = rng.Intn(4) == 0
		c.gone[id] = rng.Intn(8) == 0
		c.deps[id] = map[model.TxnID]int{}
	}
	next := map[model.TxnID]int{} // last seq each transaction performed
	for _, reader := range c.ids {
		for _, author := range c.ids {
			if reader == author || rng.Intn(10) >= 3 {
				continue
			}
			// The author writes a fresh entity, the reader observes it.
			x := model.EntityID(fmt.Sprintf("%s>%s", author, reader))
			next[author] += 1 + rng.Intn(2)
			next[reader]++
			c.trace = append(c.trace,
				model.Step{Txn: author, Seq: next[author], Entity: x, Before: 0, After: 1},
				model.Step{Txn: reader, Seq: next[reader], Entity: x, Before: 1, After: 1})
			c.deps[reader][author] = next[author]
		}
	}
	return c
}

// build drives a fresh Ledger into the case's state through its API.
func (c *ledgerCase) build() (*Ledger, map[model.TxnID]*Txn) {
	l := NewLedger()
	recs := map[model.TxnID]*Txn{}
	for _, id := range c.ids {
		recs[id] = new(Txn)
		l.Add(recs[id], id)
	}
	for _, s := range c.trace {
		l.Observe(recs[s.Txn], s)
	}
	for _, id := range c.ids {
		recs[id].Finished = c.finished[id]
		recs[id].Decided = c.decided[id]
		if c.gone[id] {
			l.Remove(id)
		}
	}
	return l, recs
}

// subsets calls f with every subset of ids.
func subsets(ids []model.TxnID, f func(map[model.TxnID]bool)) {
	for mask := 0; mask < 1<<len(ids); mask++ {
		s := map[model.TxnID]bool{}
		for i, id := range ids {
			if mask&(1<<i) != 0 {
				s[id] = true
			}
		}
		f(s)
	}
}

func sortedIDs(s map[model.TxnID]bool) []model.TxnID {
	var ids []model.TxnID
	for id := range s {
		ids = append(ids, id)
	}
	model.SortTxnIDs(ids)
	return ids
}

// TestLedgerAgainstBruteForce pins the ledger's three rules on random
// dependency graphs by exhaustive search: the commit group is the greatest
// set of finished, undecided transactions closed under "every dependency is
// in the set or decided"; the abort closure is the least extension of the
// victims closed under "observed a step beyond its author's kept prefix ⇒
// wholly rolled back"; and the authors after a rollback are those a replay of
// the surviving steps produces.
func TestLedgerAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	groups, cascades := 0, 0
	for trial := 0; trial < 400; trial++ {
		c := randomCase(rng)

		// Commit group.
		var candidates []model.TxnID
		for _, id := range c.ids {
			if c.finished[id] && !c.decided[id] && !c.gone[id] {
				candidates = append(candidates, id)
			}
		}
		best := map[model.TxnID]bool{}
		subsets(candidates, func(s map[model.TxnID]bool) {
			for id := range s {
				for dep := range c.deps[id] {
					if c.gone[dep] || !(c.decided[dep] || s[dep]) {
						return
					}
				}
			}
			if len(s) > len(best) {
				best = s
			}
		})
		l, recs := c.build()
		got := l.Group()
		if want := sortedIDs(best); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Group = %v, exhaustive search says %v (case %+v)", trial, got, want, c)
		}
		for _, id := range got {
			if !recs[id].Decided {
				t.Fatalf("trial %d: group member %s not marked decided", trial, id)
			}
		}
		if len(got) > 1 {
			groups++
		}

		// Abort closure. Victims: live, undecided transactions, each kept to
		// a random prefix (0 = whole).
		keep := map[model.TxnID]int{}
		var others, partial []model.TxnID
		for _, id := range c.ids {
			switch {
			case c.gone[id] || c.decided[id]:
			case rng.Intn(3) == 0:
				keep[id] = rng.Intn(4)
				if keep[id] > 0 {
					partial = append(partial, id)
				}
			default:
				others = append(others, id)
			}
		}
		if len(keep) == 0 {
			continue
		}
		// Every candidate closure: some non-victims join, some suffix-only
		// victims escalate to whole. The least closed one is the answer.
		var want map[model.TxnID]int
		wantAdded := 0
		subsets(append(append([]model.TxnID(nil), others...), partial...), func(zeroed map[model.TxnID]bool) {
			k := map[model.TxnID]int{}
			for id, v := range keep {
				k[id] = v
			}
			for id := range zeroed {
				k[id] = 0
			}
			for _, id := range c.ids {
				if c.gone[id] || c.decided[id] {
					continue
				}
				for f, seq := range c.deps[id] {
					if kf, in := k[f]; in && seq > kf {
						if kid, in := k[id]; !in || kid != 0 {
							return // id observed an undone step and is not wholly rolled back
						}
					}
				}
			}
			if want == nil || len(zeroed) < wantAdded {
				want, wantAdded = k, len(zeroed)
			}
		})
		l, recs = c.build()
		gotKeep := map[model.TxnID]int{}
		for id, v := range keep {
			gotKeep[id] = v
		}
		ids := l.Close(gotKeep)
		if !reflect.DeepEqual(gotKeep, want) {
			t.Fatalf("trial %d: Close(%v) = %v, exhaustive search says %v (case %+v)", trial, keep, gotKeep, want, c)
		}
		all := map[model.TxnID]bool{}
		for id := range want {
			all[id] = true
		}
		if !reflect.DeepEqual(ids, sortedIDs(all)) {
			t.Fatalf("trial %d: Close returned %v for the set %v", trial, ids, want)
		}
		cascades += len(want) - len(keep)

		// Rollback: authors are a replay of the surviving steps.
		survives := func(s model.Step) bool {
			k, undone := want[s.Txn]
			return !c.gone[s.Txn] && (!undone || s.Seq <= k)
		}
		l.RolledBack(gotKeep, func(yield func(model.Step)) {
			for _, s := range c.trace {
				if survives(s) {
					yield(s)
				}
			}
		})
		wantAuthor := map[model.EntityID]authorRef{}
		for _, s := range c.trace {
			if survives(s) && s.After != s.Before {
				wantAuthor[s.Entity] = authorRef{s.Txn, s.Seq}
			}
		}
		if !reflect.DeepEqual(l.author, wantAuthor) {
			t.Fatalf("trial %d: authors after rollback %v, replay says %v", trial, l.author, wantAuthor)
		}
		for id, k := range want {
			if k == 0 && (len(recs[id].deps) != 0 || recs[id].Finished) {
				t.Fatalf("trial %d: wholly rolled back %s keeps deps %v finished=%v", trial, id, recs[id].deps, recs[id].Finished)
			}
			if k > 0 && !reflect.DeepEqual(nonEmpty(recs[id].deps), nonEmpty(c.deps[id])) {
				t.Fatalf("trial %d: suffix-only victim %s lost dependencies: %v, had %v", trial, id, recs[id].deps, c.deps[id])
			}
		}
	}
	if groups == 0 || cascades == 0 {
		t.Fatalf("vacuous run: %d multi-member groups, %d cascades", groups, cascades)
	}
}

func nonEmpty(m map[model.TxnID]int) map[model.TxnID]int {
	if len(m) == 0 {
		return nil
	}
	return m
}
