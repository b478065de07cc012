package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
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
		if c.finished[id] {
			l.Finish(recs[id])
		}
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
		got := l.Group(nil)
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
		l.RolledBack(gotKeep)
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

// wholeMapLedger is the ledger before the finished queue and the reverse
// index, kept as the oracle for TestLedgerAgainstWholeMap: Group scans every
// transaction, Committed scans every author and every dependency map, Close
// scans every transaction each round.
type wholeMapLedger struct {
	txns   map[model.TxnID]*wholeMapTxn
	author map[model.EntityID]authorRef
}

type wholeMapTxn struct {
	finished, decided bool
	deps              map[model.TxnID]int
}

func (o *wholeMapLedger) observe(id model.TxnID, s model.Step) {
	t := o.txns[id]
	if a, ok := o.author[s.Entity]; ok && a.txn != id && a.seq > t.deps[a.txn] {
		t.deps[a.txn] = a.seq
	}
	o.wrote(s)
}

func (o *wholeMapLedger) wrote(s model.Step) {
	if s.After != s.Before {
		o.author[s.Entity] = authorRef{txn: s.Txn, seq: s.Seq}
	}
}

func (o *wholeMapLedger) group() []model.TxnID {
	in := map[model.TxnID]bool{}
	for id, t := range o.txns {
		if t.finished && !t.decided {
			in[id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for id := range in {
			for dep := range o.txns[id].deps {
				if d := o.txns[dep]; d == nil || !(d.decided || in[dep]) {
					delete(in, id)
					changed = true
					break
				}
			}
		}
	}
	if len(in) == 0 {
		return nil
	}
	for id := range in {
		o.txns[id].decided = true
	}
	return model.SortedKeys(in)
}

func (o *wholeMapLedger) committed(ids []model.TxnID) {
	for _, id := range ids {
		delete(o.txns, id)
	}
	for x, a := range o.author {
		if o.txns[a.txn] == nil {
			delete(o.author, x)
		}
	}
	for _, t := range o.txns {
		for _, id := range ids {
			delete(t.deps, id)
		}
	}
}

func (o *wholeMapLedger) close(keep map[model.TxnID]int) []model.TxnID {
	frontier := model.SortedKeys(keep)
	for len(frontier) > 0 {
		var next []model.TxnID
		for id, t := range o.txns {
			if k, victim := keep[id]; t.decided || (victim && k == 0) {
				continue
			}
			for _, f := range frontier {
				if seq, ok := t.deps[f]; ok && seq > keep[f] {
					keep[id] = 0
					next = append(next, id)
					break
				}
			}
		}
		frontier = next
	}
	return model.SortedKeys(keep)
}

func (o *wholeMapLedger) rolledBack(keep map[model.TxnID]int, surviving []model.Step) {
	for id, k := range keep {
		if t := o.txns[id]; t != nil && k == 0 {
			clear(t.deps)
			t.finished = false
		}
	}
	clear(o.author)
	for _, s := range surviving {
		o.wrote(s)
	}
}

// TestLedgerAgainstWholeMap drives the ledger and the whole-map oracle
// through random host histories — Add (recycling retired records and
// reusing retired ids), Observe, Finish, Group, Committed (in decision
// order, as a pipelined store acknowledges), Close with whole and partial
// victims, RolledBack, Remove — and compares them call by call: the same
// groups, the same closures, the same authors, dependencies and marks. After
// every call it also checks what the per-footprint bookkeeping must
// preserve: no author or dependency names a committed or removed id, every
// dependency is in its author's reverse index, and every finished,
// undecided transaction is in the finished queue. Every other trial records,
// and at its end Execution must hold the surviving steps of each decided
// registration, told apart by registration as a host's trace would be.
func TestLedgerAgainstWholeMap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var groups, cascades, partials, recycled, dropped int
	for trial := 0; trial < 300; trial++ {
		l := NewLedger()
		record := trial%2 == 0
		if record {
			l.Record()
		}
		// The record's oracle: every observed step with the registration
		// that performed it, whether a rollback undid it, which
		// registrations were decided, and the decided groups' sizes.
		type recStep struct {
			s    model.Step
			reg  int
			dead bool
		}
		var recorded []recStep
		reg, decidedReg, regs := map[model.TxnID]int{}, map[int]bool{}, 0
		var wantGroups []int
		o := &wholeMapLedger{txns: map[model.TxnID]*wholeMapTxn{}, author: map[model.EntityID]authorRef{}}
		recs := map[model.TxnID]*Txn{}
		seq := map[model.TxnID]int{}
		var free []*Txn
		var trace []model.Step      // the uncommitted steps that survive, in order
		var pending [][]model.TxnID // decided groups awaiting Committed
		var buf []model.TxnID
		vals := map[model.EntityID]model.Value{}
		next := 0

		live := func(ok func(*Txn) bool) []model.TxnID {
			var ids []model.TxnID
			for id, r := range recs {
				if ok(r) {
					ids = append(ids, id)
				}
			}
			model.SortTxnIDs(ids)
			return ids
		}
		pick := func(ids []model.TxnID) model.TxnID { return ids[rng.Intn(len(ids))] }
		check := func(op string) {
			t.Helper()
			for x, a := range l.author {
				if l.txns[a.txn] == nil {
					t.Fatalf("trial %d after %s: %s authored by %s, which left the ledger", trial, op, x, a.txn)
				}
			}
			if !reflect.DeepEqual(l.author, o.author) {
				t.Fatalf("trial %d after %s: authors %v, oracle %v", trial, op, l.author, o.author)
			}
			if len(l.txns) != len(o.txns) {
				t.Fatalf("trial %d after %s: %d transactions, oracle %d", trial, op, len(l.txns), len(o.txns))
			}
			for id, r := range l.txns {
				ot := o.txns[id]
				if ot == nil || r.Finished != ot.finished || r.Decided != ot.decided ||
					!reflect.DeepEqual(nonEmpty(r.deps), nonEmpty(ot.deps)) {
					t.Fatalf("trial %d after %s: %s is %+v, oracle %+v", trial, op, id, r, ot)
				}
				for dep := range r.deps {
					if l.txns[dep] == nil {
						t.Fatalf("trial %d after %s: %s depends on %s, which left the ledger", trial, op, id, dep)
					}
					if !slices.Contains(l.txns[dep].dependents, id) {
						t.Fatalf("trial %d after %s: %s depends on %s but is not in its reverse index", trial, op, id, dep)
					}
				}
				if r.Finished && !r.Decided && !slices.Contains(l.fin, r) {
					t.Fatalf("trial %d after %s: finished %s is not queued", trial, op, id)
				}
			}
		}

		for op := 0; op < 200; op++ {
			switch k := rng.Intn(20); {
			case k < 3 || len(recs) == 0: // Add, reusing a retired id and record when there is one
				id := model.TxnID(fmt.Sprintf("t%d", next%12))
				next++
				if recs[id] != nil {
					continue
				}
				r := new(Txn)
				if len(free) > 0 {
					r, free = free[len(free)-1], free[:len(free)-1]
					recycled++
				}
				l.Add(r, id)
				regs++
				reg[id] = regs
				o.txns[id] = &wholeMapTxn{deps: map[model.TxnID]int{}}
				recs[id], seq[id] = r, 0
				check("add " + string(id))
			case k < 10: // Observe a step of a running transaction
				ids := live(func(r *Txn) bool { return !r.Finished && !r.Decided && !r.Committed })
				if len(ids) == 0 {
					continue
				}
				id := pick(ids)
				x := model.EntityID(fmt.Sprintf("x%d", rng.Intn(5)))
				s := model.Step{Txn: id, Seq: seq[id] + 1, Entity: x, Before: vals[x], After: vals[x] + model.Value(rng.Intn(2))}
				vals[x] = s.After
				seq[id]++
				trace = append(trace, s)
				l.Observe(recs[id], s)
				recorded = append(recorded, recStep{s: s, reg: reg[id]})
				o.observe(id, s)
				check("observe " + string(id))
			case k < 12: // Finish
				ids := live(func(r *Txn) bool { return !r.Finished && !r.Decided && !r.Committed })
				if len(ids) == 0 {
					continue
				}
				id := pick(ids)
				l.Finish(recs[id])
				o.txns[id].finished = true
				check("finish " + string(id))
			case k < 14: // Group
				// One buffer for every call, as the engine passes it: a kept
				// group is a copy.
				buf = l.Group(buf)
				got, want := buf, o.group()
				if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Group = %v, oracle %v", trial, got, want)
				}
				if len(got) > 0 {
					for _, id := range got {
						decidedReg[reg[id]] = true
					}
					wantGroups = append(wantGroups, len(got))
					pending = append(pending, slices.Clone(got))
					if len(got) > 1 {
						groups++
					}
				}
				// Group leaves only live candidates in the queue, each once.
				seen := map[*Txn]bool{}
				for _, r := range l.fin {
					if seen[r] || !r.Finished || r.Decided || l.txns[r.ID] != r {
						t.Fatalf("trial %d: after Group the queue holds %+v (duplicate %v)", trial, r, seen[r])
					}
					seen[r] = true
				}
				check("group")
			case k < 16: // Committed, oldest decided group first; sometimes retire the members
				if len(pending) == 0 {
					continue
				}
				ids := pending[0]
				pending = pending[1:]
				l.Committed(ids)
				o.committed(ids)
				trace = slices.DeleteFunc(trace, func(s model.Step) bool { return slices.Contains(ids, s.Txn) })
				for _, id := range ids {
					if !recs[id].Committed {
						t.Fatalf("trial %d: committed %s not marked", trial, id)
					}
					if rng.Intn(2) == 0 {
						l.Remove(id)
						free = append(free, recs[id])
						delete(recs, id)
					}
				}
				check("committed")
			case k < 18: // Close + RolledBack over random undecided victims
				ids := live(func(r *Txn) bool { return !r.Decided })
				keep := map[model.TxnID]int{}
				for _, id := range ids {
					if rng.Intn(3) == 0 {
						keep[id] = 0
						if !recs[id].Finished && seq[id] > 1 && rng.Intn(2) == 0 {
							keep[id] = 1 + rng.Intn(seq[id]-1)
							partials++
						}
					}
				}
				if len(keep) == 0 {
					continue
				}
				named := len(keep)
				okeep := maps.Clone(keep)
				got, want := l.Close(keep), o.close(okeep)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(keep, okeep) {
					t.Fatalf("trial %d: Close = %v %v, oracle %v %v", trial, got, keep, want, okeep)
				}
				cascades += len(keep) - named
				trace = slices.DeleteFunc(trace, func(s model.Step) bool {
					k, undone := keep[s.Txn]
					return undone && s.Seq > k
				})
				for id, k := range keep {
					seq[id] = k
				}
				for i, r := range recorded {
					if k, undone := keep[r.s.Txn]; undone && r.reg == reg[r.s.Txn] && r.s.Seq > k {
						recorded[i].dead = true
					}
				}
				l.RolledBack(keep)
				o.rolledBack(keep, trace)
				check("rollback")
			default: // Remove a wholly rolled-back transaction that has not restarted
				ids := live(func(r *Txn) bool { return !r.Finished && !r.Decided && seq[r.ID] == 0 })
				if len(ids) == 0 {
					continue
				}
				id := pick(ids)
				l.Remove(id)
				delete(o.txns, id)
				free = append(free, recs[id])
				delete(recs, id)
				check("remove " + string(id))
			}
		}
		var wantExec model.Execution
		if record {
			wantExec = model.Execution{}
			for _, r := range recorded {
				switch {
				case !decidedReg[r.reg]:
				case r.dead:
					dropped++
				default:
					wantExec = append(wantExec, r.s)
				}
			}
		} else {
			wantGroups = nil
		}
		if got := l.Execution(); !reflect.DeepEqual(got, wantExec) {
			t.Fatalf("trial %d: Execution = %v, oracle %v", trial, got, wantExec)
		}
		if got := l.Groups(); !reflect.DeepEqual(got, wantGroups) {
			t.Fatalf("trial %d: Groups = %v, oracle %v", trial, got, wantGroups)
		}
	}
	if groups == 0 || cascades == 0 || partials == 0 || recycled == 0 || dropped == 0 {
		t.Fatalf("vacuous run: %d multi-member groups, %d cascades, %d partial victims, %d recycled records, %d undone steps of decided transactions",
			groups, cascades, partials, recycled, dropped)
	}
}

// recHost drives a Ledger as a host does, numbering each transaction's
// steps and rolling back its sequence numbers with the ledger.
type recHost struct {
	l   *Ledger
	txn map[model.TxnID]*Txn
	seq map[model.TxnID]int
}

func (h *recHost) step(id model.TxnID, x model.EntityID, before, after model.Value) model.Step {
	if h.txn[id] == nil {
		h.txn[id] = new(Txn)
		h.l.Add(h.txn[id], id)
	}
	h.seq[id]++
	s := model.Step{Txn: id, Seq: h.seq[id], Entity: x, Before: before, After: after}
	h.l.Observe(h.txn[id], s)
	return s
}

func (h *recHost) rollback(id model.TxnID, keep int) {
	h.seq[id] = keep
	h.l.RolledBack(map[model.TxnID]int{id: keep})
}

// decide finishes ids and forms the next commit group.
func (h *recHost) decide(ids ...model.TxnID) []model.TxnID {
	for _, id := range ids {
		h.l.Finish(h.txn[id])
	}
	return h.l.Group(nil)
}

// TestLedgerRecord pins the record a host reads back as its committed
// execution: which recorded steps survive rollbacks and undecided
// transactions, and the decided groups' sizes.
func TestLedgerRecord(t *testing.T) {
	for _, tc := range []struct {
		name   string
		off    bool // leave Record uncalled
		run    func(h *recHost) model.Execution
		groups []int
	}{
		{name: "a partial rollback keeps the prefix and drops the suffix", run: func(h *recHost) model.Execution {
			a1 := h.step("a", "x", 0, 1)
			h.step("a", "y", 0, 1)
			h.rollback("a", 1)
			a2 := h.step("a", "z", 0, 1)
			h.l.Committed(h.decide("a"))
			return model.Execution{a1, a2}
		}, groups: []int{1}},
		{name: "a later whole rollback drops the rest", run: func(h *recHost) model.Execution {
			h.step("a", "x", 0, 1)
			h.step("a", "y", 0, 1)
			h.rollback("a", 1)
			h.step("a", "z", 0, 1)
			h.rollback("a", 0)
			a1 := h.step("a", "w", 0, 1)
			h.l.Committed(h.decide("a"))
			return model.Execution{a1}
		}, groups: []int{1}},
		{name: "an undecided transaction never appears", run: func(h *recHost) model.Execution {
			h.step("c", "x", 0, 1) // c never finishes
			h.step("b", "x", 1, 2) // b read c's value: finished, it waits on c
			a1 := h.step("a", "y", 0, 1)
			if g := h.decide("b", "a"); !reflect.DeepEqual(g, []model.TxnID{"a"}) {
				t.Fatalf("group %v, want [a]", g)
			}
			h.l.Committed([]model.TxnID{"a"})
			return model.Execution{a1}
		}, groups: []int{1}},
		{name: "a decided transaction appears before Committed", run: func(h *recHost) model.Execution {
			a1 := h.step("a", "x", 0, 1)
			h.decide("a")
			return model.Execution{a1}
		}, groups: []int{1}},
		{name: "Groups lists the decided sizes in order", run: func(h *recHost) model.Execution {
			// a and b read each other's writes, so they commit together.
			a1 := h.step("a", "x", 0, 1)
			b1 := h.step("b", "x", 1, 2)
			b2 := h.step("b", "y", 0, 1)
			a2 := h.step("a", "y", 1, 2)
			h.l.Committed(h.decide("a", "b"))
			c1 := h.step("c", "z", 0, 1)
			h.l.Committed(h.decide("c"))
			return model.Execution{a1, b1, b2, a2, c1}
		}, groups: []int{2, 1}},
		{name: "without Record both are nil", off: true, run: func(h *recHost) model.Execution {
			h.step("a", "x", 0, 1)
			h.l.Committed(h.decide("a"))
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &recHost{l: NewLedger(), txn: map[model.TxnID]*Txn{}, seq: map[model.TxnID]int{}}
			if !tc.off {
				h.l.Record()
			}
			want := tc.run(h)
			if got := h.l.Execution(); !reflect.DeepEqual(got, want) {
				t.Errorf("Execution = %v, want %v", got, want)
			}
			if got := h.l.Groups(); !reflect.DeepEqual(got, tc.groups) {
				t.Errorf("Groups = %v, want %v", got, tc.groups)
			}
		})
	}
}
