package storage

import (
	"fmt"
	"testing"

	"mla/internal/model"
)

// BenchmarkLedgerCommit measures the ledger's share of one transaction's
// life — Add, two observed writes, Finish, Group, Committed, Remove — beside
// a population of in-flight (running, unfinished) transactions. Every
// per-commit call costs the committing transaction's footprint, so ns/op
// must not grow with the population. The probe variant is the commit probe
// that finds no group (the finished transaction read from a running one):
// it must allocate nothing.
func BenchmarkLedgerCommit(b *testing.B) {
	for _, inflight := range []int{1, 64, 1024} {
		l := NewLedger()
		for i := 0; i < inflight; i++ {
			id := model.TxnID(fmt.Sprintf("run-%d", i))
			t := new(Txn)
			l.Add(t, id)
			x := model.EntityID(fmt.Sprintf("run-x%d", i))
			l.Observe(t, model.Step{Txn: id, Seq: 1, Entity: x, Before: 0, After: 1})
		}
		ids := make([]model.TxnID, 64)
		for i := range ids {
			ids[i] = model.TxnID(fmt.Sprintf("c%d", i))
		}
		xs := []model.EntityID{"a", "b"}
		b.Run(fmt.Sprintf("commit/inflight=%d", inflight), func(b *testing.B) {
			rec := new(Txn)
			var buf []model.TxnID
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				l.Add(rec, id)
				for j, x := range xs {
					l.Observe(rec, model.Step{Txn: id, Seq: j + 1, Entity: x, Before: model.Value(i), After: model.Value(i + 1)})
				}
				l.Finish(rec)
				buf = l.Group(buf)
				l.Committed(buf)
				l.Remove(id)
			}
		})
		b.Run(fmt.Sprintf("probe/inflight=%d", inflight), func(b *testing.B) {
			reader := new(Txn)
			l.Add(reader, "reader")
			l.Observe(reader, model.Step{Txn: "reader", Seq: 1, Entity: "run-x0", Before: 1, After: 1})
			l.Finish(reader)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(l.Group(nil)) != 0 {
					b.Fatal("a reader of a running transaction committed")
				}
			}
		})
	}
}

// BenchmarkLedgerRollback measures one whole-transaction rollback — Add,
// three observed writes (the last over its own first), Close, RolledBack,
// Remove — beside n running transactions that each author one entity. The
// ledger walks back only the entities the victim wrote, so ns/op must not
// grow with n, and only Close's result is allocated.
func BenchmarkLedgerRollback(b *testing.B) {
	for _, inflight := range []int{64, 4096} {
		l := NewLedger()
		for i := 0; i < inflight; i++ {
			id := model.TxnID(fmt.Sprintf("run-%d", i))
			t := new(Txn)
			l.Add(t, id)
			x := model.EntityID(fmt.Sprintf("run-x%d", i))
			l.Observe(t, model.Step{Txn: id, Seq: 1, Entity: x, Before: 0, After: 1})
		}
		xs := []model.EntityID{"a", "b", "a"}
		keep := map[model.TxnID]int{}
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			rec := new(Txn)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Add(rec, "victim")
				for j, x := range xs {
					l.Observe(rec, model.Step{Txn: "victim", Seq: j + 1, Entity: x, Before: model.Value(j), After: model.Value(j + 1)})
				}
				keep["victim"] = 0
				l.Close(keep)
				l.RolledBack(keep)
				l.Remove("victim")
				clear(keep)
			}
		})
	}
}
