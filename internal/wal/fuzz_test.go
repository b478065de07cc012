package wal

import (
	"testing"

	"mla/internal/model"
)

// fuzzInit is the fixed initial state the fuzz driver recovers against.
func fuzzInit() map[model.EntityID]model.Value {
	return map[model.EntityID]model.Value{"a": 10, "b": 20, "c": -5}
}

// expectedAfterRecovery computes, independently of the recovery code, the
// state a correct recovery of this log must produce: init plus the net
// effect of every transaction with a commit record in the log. Update and
// compensation deltas of a committed transaction cancel pairwise (an
// aborted earlier attempt contributes zero), and uncommitted transactions
// contribute nothing because recovery undoes them.
func expectedAfterRecovery(recs []Record, init map[model.EntityID]model.Value) map[model.EntityID]model.Value {
	committed := make(map[model.TxnID]bool)
	for _, r := range recs {
		if r.Kind == Commit {
			committed[r.Txn] = true
			for _, t := range r.Group {
				committed[t] = true
			}
		}
	}
	out := make(map[model.EntityID]model.Value, len(init))
	for k, v := range init {
		out[k] = v
	}
	for _, r := range recs {
		if (r.Kind == Update || r.Kind == Compensation) && committed[r.Txn] {
			out[r.Entity] += r.After - r.Before
		}
	}
	return out
}

func sameValues(got, want map[model.EntityID]model.Value) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	for k, v := range got {
		if v != want[k] {
			return false
		}
	}
	return true
}

// FuzzWALRecovery drives a random history of performs, single and group
// commits, pipeline-style merged batch commits, and dependency-closed
// aborts against the WAL, then asserts the two recovery guarantees the
// crash-tolerant engine rests on:
//
//  1. Every prefix of the durable log is a consistent recovery input:
//     Open succeeds and restores exactly init plus the effects of the
//     transactions committed within the prefix.
//  2. Recovery is idempotent: recovering an already-recovered log appends
//     nothing and changes no value.
func FuzzWALRecovery(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 1, 4, 5, 0, 0, 2, 2, 5, 7, 1, 0, 6, 2, 1})
	f.Add([]byte{0, 1, 2, 0, 2, 6, 7, 1, 3, 0, 1, 1, 5, 1, 9, 0, 3, 2, 6, 0, 4})
	f.Add([]byte{2, 3, 1, 2, 3, 5, 2, 3, 2, 7, 3, 9, 0, 3, 0, 5, 3, 1})
	// Regression seed for checksum verification: the trailing selector byte
	// picks a mid-log commit record to corrupt in check 3 below.
	f.Add([]byte{0, 0, 3, 0, 1, 4, 5, 0, 0, 0, 2, 5, 5, 0, 0, 8, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		init := fuzzInit()
		db, err := Open(NewMedium(), init)
		if err != nil {
			t.Fatal(err)
		}
		txns := []model.TxnID{"t0", "t1", "t2", "t3"}
		ents := []model.EntityID{"a", "b", "c"}
		seqs := make(map[model.TxnID]int)
		committed := make(map[model.TxnID]bool)
		// authors[x] is the stack of live writers of x, oldest first: when a
		// writer aborts, the value reverts to the previous live writer's, so
		// the next reader depends on THAT transaction (a single-slot author
		// map would forget it — the engine rebuilds authors from its trace
		// for the same reason).
		authors := make(map[model.EntityID][]model.TxnID)
		deps := make(map[model.TxnID]map[model.TxnID]bool)       // what a txn observed
		dependents := make(map[model.TxnID]map[model.TxnID]bool) // who observed a txn

		clearTxn := func(id model.TxnID) {
			for x, st := range authors {
				kept := st[:0]
				for _, a := range st {
					if a != id {
						kept = append(kept, a)
					}
				}
				authors[x] = kept
			}
			delete(deps, id)
			delete(dependents, id)
			for _, m := range deps {
				delete(m, id)
			}
			for _, m := range dependents {
				delete(m, id)
			}
		}

		// closure expands seeds transitively along edges, skipping committed
		// transactions — the same dependency-closed sets the engine computes
		// for group commits (deps direction) and cascading aborts
		// (dependents direction).
		closure := func(seed model.TxnID, edges map[model.TxnID]map[model.TxnID]bool) map[model.TxnID]bool {
			set := map[model.TxnID]bool{seed: true}
			for frontier := []model.TxnID{seed}; len(frontier) > 0; {
				var next []model.TxnID
				for _, u := range frontier {
					for v := range edges[u] {
						if !set[v] && !committed[v] {
							set[v] = true
							next = append(next, v)
						}
					}
				}
				frontier = next
			}
			return set
		}

		ops := len(data) / 3
		if ops > 150 {
			ops = 150
		}
		for i := 0; i < ops; i++ {
			op, ti, arg := data[3*i]%9, data[3*i+1], data[3*i+2]
			id := txns[int(ti)%len(txns)]
			switch {
			case op <= 4: // perform
				if committed[id] {
					continue
				}
				x := ents[int(arg)%len(ents)]
				delta := model.Value(int(arg%7) - 3)
				seqs[id]++
				if _, err := db.Perform(id, seqs[id], x, func(v model.Value) (model.Value, string) {
					return v + delta, "add"
				}); err != nil {
					t.Fatalf("perform %s: %v", id, err)
				}
				// Conservative dependency edges: the closures the driver
				// computes are supersets of the true ones, which keeps them
				// dependency-closed.
				if st := authors[x]; len(st) > 0 && st[len(st)-1] != id {
					a := st[len(st)-1]
					if deps[id] == nil {
						deps[id] = make(map[model.TxnID]bool)
					}
					deps[id][a] = true
					if dependents[a] == nil {
						dependents[a] = make(map[model.TxnID]bool)
					}
					dependents[a][id] = true
				}
				if st := authors[x]; len(st) == 0 || st[len(st)-1] != id {
					authors[x] = append(authors[x], id)
				}
			case op == 5 || op == 6: // commit the dependency closure as a group
				if committed[id] || seqs[id] == 0 {
					continue
				}
				// The commit discipline: a transaction commits only together
				// with everything whose values it observed (its deps
				// closure) — exactly the chained commitment of Section 6.
				set := closure(id, deps)
				ids := make([]model.TxnID, 0, len(set))
				for v := range set {
					ids = append(ids, v)
				}
				if len(ids) == 1 {
					db.Commit(ids[0])
				} else {
					db.CommitGroup(ids)
				}
				for _, c := range ids {
					committed[c] = true
				}
				for _, c := range ids {
					clearTxn(c)
				}
			case op == 7: // merged batch commit (the Pipeline flusher's shape)
				// Merge the closures of two independent commit groups into
				// ONE record, exactly as the group-commit pipeline does when
				// submissions arrive during the same sync. A torn tail must
				// keep or drop BOTH groups — the every-prefix loop below
				// checks that the coarsened record stays sound.
				id2 := txns[int(arg)%len(txns)]
				merged := make(map[model.TxnID]bool)
				for _, seed := range []model.TxnID{id, id2} {
					if committed[seed] || seqs[seed] == 0 {
						continue
					}
					for v := range closure(seed, deps) {
						merged[v] = true
					}
				}
				if len(merged) == 0 {
					continue
				}
				ids := make([]model.TxnID, 0, len(merged))
				for v := range merged {
					ids = append(ids, v)
				}
				db.CommitGroup(ids)
				for _, c := range ids {
					committed[c] = true
				}
				for _, c := range ids {
					clearTxn(c)
				}
			default: // abort the dependents closure of the victim
				if committed[id] || seqs[id] == 0 {
					continue
				}
				set := closure(id, dependents)
				if err := db.Abort(set); err != nil {
					t.Fatalf("closed abort rejected: %v", err)
				}
				for v := range set {
					clearTxn(v)
				}
			}
		}

		m := db.Crash()
		recs := m.Records()
		// Every prefix — including the full log — recovers to init plus
		// exactly the effects committed within it.
		for lsn := int64(0); lsn <= int64(len(recs)); lsn++ {
			pm := m.Prefix(lsn)
			pdb, err := Open(pm, fuzzInit())
			if err != nil {
				t.Fatalf("recovery of prefix %d/%d failed: %v", lsn, len(recs), err)
			}
			want := expectedAfterRecovery(recs[:lsn], fuzzInit())
			if got := pdb.Values(); !sameValues(got, want) {
				t.Fatalf("prefix %d: recovered %v, want %v", lsn, got, want)
			}
			// Idempotence: a second recovery of the (now compensated) log
			// appends nothing and preserves every value.
			m2 := pdb.Crash()
			n := m2.Len()
			pdb2, err := Open(m2, fuzzInit())
			if err != nil {
				t.Fatalf("re-recovery of prefix %d failed: %v", lsn, err)
			}
			if m2.Len() != n {
				t.Fatalf("prefix %d: re-recovery appended %d records", lsn, m2.Len()-n)
			}
			if got := pdb2.Values(); !sameValues(got, want) {
				t.Fatalf("prefix %d: re-recovery changed values to %v", lsn, got)
			}
		}

		// 3. Corruption detection: a torn tail is recoverable (checked
		// above), a corrupted record is not. Flip the payload of one
		// durable record — leaving its checksum stale — and recovery must
		// refuse the whole log instead of replaying garbage.
		if len(recs) > 0 && len(data) > 0 {
			cm := m.Prefix(int64(len(recs)))
			lsn := recs[int(data[len(data)-1])%len(recs)].LSN
			if !cm.Corrupt(lsn) {
				t.Fatalf("corrupt: lsn %d not found in log of %d records", lsn, len(recs))
			}
			if _, err := Open(cm, fuzzInit()); err == nil {
				t.Fatalf("recovery accepted a corrupted record at lsn %d", lsn)
			}
		}
	})
}
